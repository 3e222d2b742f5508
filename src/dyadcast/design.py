"""Design-matrix assembly for dyadic forecasting.

A design row is one ordered dyad (i, j) at a focal period t.  The label is
whether an i->j event occurs at t.  Predictors are computed strictly from
information available before t: network structure over [t-L, t-1] and
covariates recorded at t-1 (the offset is configurable, but at least 1).
"""

from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence, Tuple

import numpy as np

from .codec import Positive, Share, checked
from .errors import DataError, SchemaError
from .features import ENDOGENOUS_FEATURE_NAMES, feature_block
from .latent import LatentBundle, LatentConfig
from .store import CovariateTable, EventPanel, aggregate_window, eligible_dyads

SPEC_ENDOGENOUS = "endogenous-only"
SPEC_COVARIATES = "covariates-only"
SPEC_COMBINED = "combined"
SPEC_CLASSES = (SPEC_ENDOGENOUS, SPEC_COVARIATES, SPEC_COMBINED)
SpecClass = Literal[SPEC_CLASSES]


@dataclass
class FeatureConfig:
    """Knobs governing how predictor columns are built."""

    latent: LatentConfig = field(default_factory=LatentConfig)
    exclude_focal_flow: bool = False
    covariate_offset: Positive = 1
    max_missing: Share = 0.5


@dataclass(frozen=True)
class DyadDesign:
    """One period's worth of rows: dyads, predictors, labels."""

    period: int
    lag: int
    spec_class: str
    dyads: Tuple[Tuple[str, str], ...]
    feature_names: Tuple[str, ...]
    X: np.ndarray
    y: np.ndarray

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    @property
    def positive_rate(self) -> float:
        return float(self.y.mean()) if self.y.size else float("nan")


def _covariate_block(
    table: CovariateTable,
    period: int,
    dyads: Sequence[Tuple[str, str]],
    max_missing: float,
) -> Tuple[list, np.ndarray]:
    """Build covariate columns plus per-covariate missingness indicators.

    Missing entries are imputed to zero and flagged in a companion
    ``<name>-missing`` column so the learner can absorb the gap.  A covariate
    missing for more than ``max_missing`` of rows is a data problem, not a
    modeling choice.
    """
    names = list(table.names_present())
    if not names:
        raise DataError("covariate table declares no covariate names")
    cols = []
    out_names = []
    n = len(dyads)
    for name in names:
        vals = np.zeros(n)
        miss = np.zeros(n)
        for k, (i, j) in enumerate(dyads):
            v = table.value(period, i, j, name)
            if v is None:
                miss[k] = 1.0
            else:
                vals[k] = v
        frac = float(miss.mean()) if n else 0.0
        if frac > max_missing:
            raise DataError(
                f"covariate {name!r} missing for {frac:.0%} of dyads at period {period}"
            )
        cols.append(vals)
        cols.append(miss)
        out_names.append(name)
        out_names.append(f"{name}-missing")
    X = np.column_stack(cols) if cols else np.zeros((n, 0))
    return out_names, X


@checked
def build_design(
    panel: EventPanel,
    period: int,
    lag: Positive,
    spec_class: SpecClass,
    config: FeatureConfig,
    bundle: Optional[LatentBundle] = None,
    covariates: Optional[CovariateTable] = None,
) -> DyadDesign:
    """Assemble the design matrix for one focal period.

    ``bundle`` must hold latent-structure fits for the window [period-lag,
    period-1]; it is required whenever endogenous features are in play.
    """
    dyads = eligible_dyads(panel, period)

    events_now = panel.events_at(period)
    y = np.array([1.0 if (i, j) in events_now else 0.0 for i, j in dyads])

    blocks = []
    names: list = []

    if spec_class in (SPEC_ENDOGENOUS, SPEC_COMBINED):
        if bundle is None:
            raise ValueError("endogenous features require a latent bundle")
        net = aggregate_window(panel, period - lag, period - 1)
        blocks.append(
            feature_block(
                net, dyads, bundle, exclude_focal_flow=config.exclude_focal_flow
            )
        )
        names.extend(ENDOGENOUS_FEATURE_NAMES)

    if spec_class in (SPEC_COVARIATES, SPEC_COMBINED):
        if covariates is None:
            raise ValueError("covariate features require a covariate table")
        cov_names, cov_X = _covariate_block(
            covariates, period - config.covariate_offset, dyads, config.max_missing
        )
        blocks.append(cov_X)
        names.extend(cov_names)

    X = np.column_stack(blocks) if blocks else np.zeros((len(dyads), 0))
    if not np.all(np.isfinite(X)):
        raise DataError(f"non-finite predictor values at period {period}")
    return DyadDesign(
        period=period,
        lag=lag,
        spec_class=spec_class,
        dyads=tuple(dyads),
        feature_names=tuple(names),
        X=X,
        y=y,
    )


def stack_designs(designs: Sequence[DyadDesign]) -> Tuple[np.ndarray, np.ndarray]:
    """Vertically stack several periods' designs after a schema check."""
    if not designs:
        raise ValueError("nothing to stack")
    ref = designs[0].feature_names
    for d in designs[1:]:
        if d.feature_names != ref:
            raise SchemaError(
                f"feature schema mismatch: {d.feature_names} vs {ref}"
            )
    X = np.vstack([d.X for d in designs])
    y = np.concatenate([d.y for d in designs])
    return X, y
