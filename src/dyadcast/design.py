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
from .store import (
    CovariateTable, EventPanel, LaggedNetwork, aggregate_window, dyad_positions, eligible_dyads,
)

SPEC_ENDOGENOUS = "endogenous-only"
SPEC_COVARIATES = "covariates-only"
SPEC_COMBINED = "combined"
SPEC_CLASSES = (SPEC_ENDOGENOUS, SPEC_COVARIATES, SPEC_COMBINED)
SpecClass = Literal[SPEC_CLASSES]
# the spec classes that are one block each, as `build_design` makes them
BlockClass = Literal[SPEC_ENDOGENOUS, SPEC_COVARIATES]
# the spec classes whose designs hold the covariate columns
READS_COVARIATES = frozenset((SPEC_COVARIATES, SPEC_COMBINED))


@dataclass
class FeatureConfig:
    """Knobs governing how predictor columns are built."""

    latent: LatentConfig = field(default_factory=LatentConfig)
    exclude_focal_flow: bool = False
    covariate_offset: Positive = 1
    max_missing: Share = 0.5


@dataclass(frozen=True)
class DyadDesign:
    """One period's predictors and labels. Row k is the dyad at position k
    of ``eligible_dyads(panel, period)``."""

    feature_names: Tuple[str, ...]
    X: np.ndarray
    y: np.ndarray


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
    modeling choice. A dyad is missing every name when either id has no
    entry at ``period``, or the table has no such period.
    """
    names = table.names
    if not names:
        raise DataError("covariate table declares no covariate names")
    n = len(dyads)
    values = np.zeros((len(names), n))
    missing = np.ones((len(names), n), dtype=bool)
    block = table.periods.get(period)
    if block is not None:
        I, J, known = dyad_positions(block.index, dyads)
        I, J = I[known], J[known]
        # cells without an entry hold 0.0, the imputed value
        values[:, known] = block.values[:, I, J]
        missing[:, known] = ~block.present[:, I, J]
    for name, count in zip(names, missing.sum(axis=1).tolist()):
        frac = count / n if n else 0.0
        if frac > max_missing:
            raise DataError(
                f"covariate {name!r} missing for {frac:.0%} of dyads at period {period}"
            )
    X = np.empty((n, 2 * len(names)))
    X[:, 0::2] = values.T
    X[:, 1::2] = missing.T
    return [col for name in names for col in (name, f"{name}-missing")], X


@checked
def build_design(
    panel: EventPanel,
    period: int,
    spec_class: BlockClass,
    config: FeatureConfig,
    net: Optional[LaggedNetwork] = None,
    bundle: Optional[LatentBundle] = None,
    covariates: Optional[CovariateTable] = None,
) -> DyadDesign:
    """Assemble one block's design matrix for one focal period.

    ``net`` is the window [period-lag, period-1] that the caller aggregated
    and ``bundle`` the latent-structure fits on it; both are required for
    the endogenous block. The labels are the events of ``period``'s own
    one-period window. A ``combined`` design is `join_designs` of the two
    blocks.
    """
    if net is not None and net.window[1] != period - 1:
        raise ValueError(f"window {net.window} of period {period} must end at {period - 1}")
    dyads = eligible_dyads(panel, period)

    # a node that has left by period is not in its window: the dyad is a 0
    now = aggregate_window(panel, period, period)
    I, J, known = dyad_positions(now.index, dyads)
    y = np.zeros(len(dyads))
    y[known] = now.adjacency[I[known], J[known]]

    if spec_class == SPEC_ENDOGENOUS:
        if net is None or bundle is None:
            raise ValueError("endogenous features require a lagged window and its latent bundle")
        names = ENDOGENOUS_FEATURE_NAMES
        X = feature_block(net, dyads, bundle, exclude_focal_flow=config.exclude_focal_flow)
    else:
        if covariates is None:
            raise ValueError("covariate features require a covariate table")
        names, X = _covariate_block(
            covariates, period - config.covariate_offset, dyads, config.max_missing
        )

    if not np.all(np.isfinite(X)):
        raise DataError(f"non-finite predictor values at period {period}")
    return DyadDesign(feature_names=tuple(names), X=X, y=y)


def join_designs(network: DyadDesign, covariates: DyadDesign) -> DyadDesign:
    """One period's ``combined`` design: the network columns, then the
    covariate columns, labelled by the first design's ``y``."""
    return DyadDesign(
        feature_names=network.feature_names + covariates.feature_names,
        X=np.column_stack((network.X, covariates.X)),
        y=network.y,
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
