"""Synthetic dyadic event panels with planted structure.

Events are drawn in every period, period 1 included. A logistic model
combines a baseline rate, block affinity and covariate effects, and a dyad
with an event in the previous period mixes that probability with
persistence. Ground-truth parameters come back alongside the data so
recovery checks have an oracle. All nodes span the full period range, so
eligibility never depends on inferred activity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .codec import Bound, Count, Positive, Saved, Share, check_fields, decode
from .errors import GenerationError
from .seeding import seed_for
from .store import (
    CANONICAL_COVARIATES,
    COVARIATES_HEADER,
    EVENTS_HEADER,
    INDICATOR_COVARIATES,
    REGISTRY_HEADER,
    CovariateTable,
    EventPanel,
    _write_rows,
)

DEFAULT_SYNTH_COVARIATES = (
    "joint-democracy",
    "trade-dependence",
    "contiguity",
    "capital-distance",
)


@dataclass(frozen=True)
class SyntheticSpec(Saved):
    """Generator parameters. rate_band bounds the overall positive rate
    (events per dyad-period); draws outside it are regenerated with a
    fresh derived seed up to max_attempts times."""

    n_nodes: Annotated[int, Bound(2)] = 15
    periods: Positive = 30
    n_blocks: Positive = 2
    block_affinity: float = 0.0
    persistence: Share = 0.0
    base_rate: Share = 0.05
    covariate_effects: dict[str, float] = field(default_factory=dict)
    covariate_names: tuple[Literal[CANONICAL_COVARIATES], ...] = DEFAULT_SYNTH_COVARIATES
    time_varying_covariates: bool = False
    initial_edges: tuple[tuple[Count, Count], ...] = ()
    rate_band: tuple[Share, Share] = (0.0, 1.0)
    max_attempts: Positive = 20
    seed: int = 0

    def validate(self) -> None:
        """Declared types and bounds, then the rules between fields."""
        check_fields(self, GenerationError)
        if len(set(self.covariate_names)) < len(self.covariate_names):
            raise GenerationError(f"covariate_names repeats a name: {self.covariate_names}")
        for name in self.covariate_effects:
            if name not in self.covariate_names:
                raise GenerationError(f"effect on unemitted covariate {name!r}")
        if self.rate_band[0] > self.rate_band[1]:
            raise GenerationError(f"rate_band must satisfy lo <= hi, got {self.rate_band}")
        for a, b in self.initial_edges:
            if a >= self.n_nodes or b >= self.n_nodes or a == b:
                raise GenerationError(f"bad initial edge ({a},{b})")

    @classmethod
    def from_json(cls, obj: dict) -> "SyntheticSpec":
        return decode(cls, obj, GenerationError, "synthetic spec")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator actually used, for recovery oracles."""

    blocks: dict
    intercept: float
    block_affinity: float
    persistence: float
    effects: dict
    rate: float
    attempts: int


def _logit(p: float) -> float:
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p / (1.0 - p))


def _sigmoid(eta: float) -> float:
    if eta > 36.0:
        return 1.0
    if eta < -36.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-eta))


def generate_synthetic(spec: SyntheticSpec):
    """Draw (EventPanel, CovariateTable, GroundTruth) from the spec.

    Edge probability at period p for dyad (i,j):
        p_logit = sigmoid(logit(base_rate) + block_affinity*[same block]
                          + sum_k effect_k * x_k(i,j))
        p       = persistence + (1-persistence)*p_logit   if edge at p-1
                = p_logit                                  otherwise
    Events at p>=2 use the covariate values recorded at p-1, matching what
    a forecaster sees; period 1 uses its own values. initial_edges fire
    with probability 1 at period 1.
    """
    spec.validate()
    n = spec.n_nodes
    nodes = [f"n{k:02d}" for k in range(n)]
    blocks = {node: k % spec.n_blocks for k, node in enumerate(nodes)}
    dyads = [(i, j) for i in nodes for j in nodes if i != j]
    # dyad d is (nodes[I[d]], nodes[J[d]]): the off-diagonal in row-major order
    I, J = np.nonzero(~np.eye(n, dtype=bool))
    intercept = _logit(spec.base_rate)
    # the log-odds before covariates: intercept, then the block term
    eta_base = np.where((I - J) % spec.n_blocks == 0, intercept + spec.block_affinity, intercept)
    # dyad (a, b) sits at a*(n-1) + b, one less when b is past the diagonal
    initial = np.zeros(len(dyads), dtype=bool)
    initial[[a * (n - 1) + b - (b > a) for a, b in spec.initial_edges]] = True
    names = spec.covariate_names
    effects = [(names.index(name), e) for name, e in sorted(spec.covariate_effects.items())]
    registry = {node: (1, spec.periods) for node in nodes}

    lo, hi = spec.rate_band
    for attempt in range(spec.max_attempts):
        rng = np.random.default_rng(seed_for(spec.seed, "synth", attempt))

        def draw_block():
            vals = np.empty((len(dyads), len(names)))
            for c, name in enumerate(names):
                if name in INDICATOR_COVARIATES:
                    vals[:, c] = (rng.random(len(dyads)) < 0.5).astype(float)
                else:
                    vals[:, c] = rng.normal(0.0, 1.0, size=len(dyads))
            return vals

        xs = {1: draw_block()}
        for p in range(2, spec.periods + 1):
            xs[p] = draw_block() if spec.time_varying_covariates else xs[1]

        events = []
        prev = np.zeros(len(dyads), dtype=bool)
        for p in range(1, spec.periods + 1):
            x = xs[max(p - 1, 1)]
            eta = eta_base
            for c, effect in effects:
                eta = eta + effect * x[:, c]
            p_logit = np.array([_sigmoid(e) for e in eta.tolist()])
            prob = np.where(prev, spec.persistence + (1.0 - spec.persistence) * p_logit, p_logit)
            if p == 1:
                prob[initial] = 1.0
            prev = rng.random(len(dyads)) < prob
            events.extend((i, j, p) for i, j in compress(dyads, prev))

        rate = len(events) / (len(dyads) * spec.periods)
        if lo <= rate <= hi:
            # one row per (period, dyad, name), in the order xs holds them
            period, dyad, column = np.indices((spec.periods, len(dyads), len(names))).reshape(3, -1)
            table = CovariateTable.from_codes(
                (range(1, spec.periods + 1), nodes, names),
                (period, I[dyad], J[dyad], column),
                np.concatenate([xs[p].ravel() for p in range(1, spec.periods + 1)]),
            )
            panel = EventPanel(events=tuple(events), registry=registry)
            truth = GroundTruth(
                blocks=blocks,
                intercept=intercept,
                block_affinity=spec.block_affinity,
                persistence=spec.persistence,
                effects=dict(spec.covariate_effects),
                rate=rate,
                attempts=attempt + 1,
            )
            return panel, table, truth

    raise GenerationError(
        f"no draw landed in rate band {spec.rate_band} after {spec.max_attempts} attempts"
    )


def save_synthetic(panel: EventPanel, table: CovariateTable, out_dir) -> dict:
    """Write events.csv, registry.csv, covariates.csv in the ingestion
    schemas; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out / "events.csv",
        "registry": out / "registry.csv",
        "covariates": out / "covariates.csv",
    }
    _write_rows(paths["events"], EVENTS_HEADER, panel.events)
    _write_rows(
        paths["registry"], REGISTRY_HEADER,
        ((node, *panel.registry[node]) for node in sorted(panel.registry)),
    )
    _write_rows(
        paths["covariates"], COVARIATES_HEADER,
        ((*key, repr(value)) for key, value in table.entries.items()),
    )
    return {k: str(v) for k, v in paths.items()}
