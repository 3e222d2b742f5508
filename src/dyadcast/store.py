"""Event panel ingestion, lagged aggregation, and dyad eligibility.

Periods are integer years. Sub-annual data must be binned to years by the
caller before ingestion.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError

# Dyadic covariates known out of the box. Extensions are registered per
# table via `extra_names`.
CANONICAL_COVARIATES = (
    "joint-democracy",
    "trade-dependence",
    "joint-IGO-membership",
    "CINC-ratio",
    "capital-distance",
    "major-power-dyad",
    "defensive-alliance",
    "contiguity",
    "war-with-ally",
)

# Covariates constrained to {0,1}. The remaining canonical names are
# real-valued.
INDICATOR_COVARIATES = frozenset(
    {
        "joint-democracy",
        "major-power-dyad",
        "defensive-alliance",
        "contiguity",
        "war-with-ally",
    }
)

# Headers of the three input CSVs, as the readers expect and save_synthetic
# writes them.
EVENTS_HEADER = ("sender", "receiver", "year")
REGISTRY_HEADER = ("node", "first_year", "last_year")
COVARIATES_HEADER = ("year", "i", "j", "name", "value")


@dataclass(frozen=True)
class EventPanel:
    """Timestamped directed dyadic events plus a node registry.

    events are stored in canonical (period, sender, receiver) order so that
    two panels built from the same rows compare equal regardless of input
    row order. Duplicate events are retained; aggregation collapses them.
    registry maps node id -> (first_period, last_period), inclusive.
    """

    events: tuple[tuple[str, str, int], ...]
    registry: dict[str, tuple[int, int]]

    def __post_init__(self):
        canon = sorted(
            ((s, r, int(p)) for s, r, p in self.events), key=lambda e: (e[2], e[0], e[1])
        )
        object.__setattr__(self, "events", tuple(canon))
        for s, r, p in self.events:
            if s == r:
                raise ValidationError(f"self-initiation {s}->{r} at {p} is not allowed")
            for node in (s, r):
                span = self.registry.get(node)
                if span is None:
                    raise ValidationError(f"event references unregistered node {node!r}")
                if not (span[0] <= p <= span[1]):
                    raise ValidationError(
                        f"event {s}->{r} at {p} outside registry span {span} of {node!r}"
                    )
        for node, (first, last) in self.registry.items():
            if first > last:
                raise ValidationError(f"registry span for {node!r} is empty: {first}>{last}")

    @staticmethod
    def infer_registry(events) -> dict[str, tuple[int, int]]:
        """Span each node from its first to its last observed involvement."""
        spans: dict[str, tuple[int, int]] = {}
        for s, r, p in events:
            for node in (s, r):
                lo, hi = spans.get(node, (p, p))
                spans[node] = (min(lo, p), max(hi, p))
        return dict(sorted(spans.items()))

    def nodes(self) -> list[str]:
        return sorted(self.registry)

    def active(self, node: str, period: int) -> bool:
        span = self.registry.get(node)
        return span is not None and span[0] <= period <= span[1]

    def period_range(self) -> tuple[int, int]:
        if not self.registry:
            raise ValidationError("panel has an empty registry")
        firsts, lasts = zip(*self.registry.values())
        return min(firsts), max(lasts)

    def events_at(self, period: int) -> frozenset[tuple[str, str]]:
        return frozenset((s, r) for s, r, p in self.events if p == period)


@dataclass(frozen=True, eq=False)
class LaggedNetwork:
    """Binary directed adjacency aggregated over an inclusive window.

    ``nodes`` is the window's sorted node tuple and ``adjacency`` the
    read-only n x n 0/1 matrix in that order (``adjacency[k, m] == 1`` iff
    nodes[k] -> nodes[m] is an edge); ``index`` maps each node to its
    position.
    """

    window: tuple[int, int]
    nodes: tuple[str, ...]
    adjacency: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        return {node: k for k, node in enumerate(self.nodes)}

    def content_hash(self) -> str:
        """Hash of node set and edge set only; window bounds are excluded so
        that windows with identical content share latent-structure fits.
        Row-major edge order is sorted name order, as the nodes are sorted."""
        h = hashlib.sha256()
        for n in self.nodes:
            h.update(n.encode())
            h.update(b"\x00")
        h.update(b"\x01")
        for i, j in np.argwhere(self.adjacency).tolist():
            h.update(f"{self.nodes[i]}\x00{self.nodes[j]}".encode())
            h.update(b"\x01")
        return h.hexdigest()


@dataclass
class CovariateTable:
    """Long-form dyadic covariates keyed by (period, i, j, name).

    Only declared names are accepted: the canonical set plus any
    `extra_names` registered at construction. Indicator covariates must
    take values in {0,1}.
    """

    entries: dict[tuple[int, str, str, str], float] = field(default_factory=dict)
    extra_names: tuple[str, ...] = ()
    indicator_extras: frozenset[str] = frozenset()

    def __post_init__(self):
        self.declared = CANONICAL_COVARIATES + tuple(self.extra_names)
        indicators = INDICATOR_COVARIATES | self.indicator_extras
        seen = set()
        for (period, i, j, name), value in self.entries.items():
            if name not in self.declared:
                raise ValidationError(f"undeclared covariate name {name!r}")
            if name in indicators and value not in (0.0, 1.0):
                raise ValidationError(
                    f"indicator covariate {name!r} has non-binary value {value} "
                    f"at ({period},{i},{j})"
                )
            seen.add(name)
        self._present = [n for n in self.declared if n in seen]

    def names_present(self) -> list[str]:
        """Declared names with at least one entry, in declaration order."""
        return list(self._present)


def _open_text(source):
    """Accept a path, bytes, or a file-like object; return a context manager
    giving a text stream. Only a file opened here is closed on exit."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode())
    return contextlib.nullcontext(source)


def _read_rows(source, expected_header, label):
    """Yield (line number, raw fields) for each non-blank data row, so a
    malformed row is reported only after every earlier row was consumed.
    Surrounding whitespace is not part of a value: each caller strips the
    fields it reads."""
    width = len(expected_header)
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{label}: empty input, expected header {expected_header}")
        header = [h.strip() for h in header]
        if header != list(expected_header):
            raise ParseError(
                f"{label}: line 1: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ParseError(
                    f"{label}: line {line_no}: expected {width} fields, got {len(row)}"
                )
            yield line_no, row


def _write_rows(path, header, rows) -> None:
    """Write the header and then each row, in the dialect _read_rows reads."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _parse_int(text, label, line_no, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{label}: line {line_no}: {what} {text!r} is not an integer")


def _parse_float(text, label, line_no, what):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{label}: line {line_no}: {what} {text!r} is not a number")
    if not math.isfinite(value):
        raise ParseError(f"{label}: line {line_no}: {what} {text!r} is not a finite number")
    return value


def load_events(events_csv, registry_csv=None) -> EventPanel:
    """Read an event panel from CSV.

    events_csv has header ``sender,receiver,year``. registry_csv, when
    given, has header ``node,first_year,last_year``; otherwise each node's
    span is inferred as [first, last] observed involvement year.
    """
    events = []
    for line_no, row in _read_rows(events_csv, EVENTS_HEADER, "events"):
        s, r, y = (f.strip() for f in row)
        if not s or not r:
            raise ParseError(f"events: line {line_no}: empty node id")
        year = _parse_int(y, "events", line_no, "year")
        events.append((s, r, year))

    if registry_csv is not None:
        registry = {}
        for line_no, row in _read_rows(registry_csv, REGISTRY_HEADER, "registry"):
            node, lo, hi = (f.strip() for f in row)
            if node in registry:
                raise ParseError(f"registry: line {line_no}: duplicate node {node!r}")
            registry[node] = (
                _parse_int(lo, "registry", line_no, "first_year"),
                _parse_int(hi, "registry", line_no, "last_year"),
            )
        registry = dict(sorted(registry.items()))
    else:
        registry = EventPanel.infer_registry(events)

    return EventPanel(events=tuple(events), registry=registry)


def load_covariates(cov_csv, extra_names=(), indicator_extras=()) -> CovariateTable:
    """Read a long-form covariate table with header ``year,i,j,name,value``.
    Node ids and names are interned, so the keys share one string each.

    Years, node ids and names repeat on row after row, so each distinct raw
    text is parsed or stripped and interned once per load, in two memos
    kept apart so that a year ``1`` and a node ``1`` never meet."""
    entries: dict[tuple[int, str, str, str], float] = {}
    years: dict[str, int] = {}
    texts: dict[str, str] = {}
    for line_no, (y, i, j, name, value) in _read_rows(cov_csv, COVARIATES_HEADER, "covariates"):
        try:
            key = (years[y], texts[i], texts[j], texts[name])
        except KeyError:
            if y not in years:
                years[y] = _parse_int(y.strip(), "covariates", line_no, "year")
            for text in (i, j, name):
                if text not in texts:
                    texts[text] = sys.intern(text.strip())
            key = (years[y], texts[i], texts[j], texts[name])
        if key in entries:
            raise ParseError(f"covariates: line {line_no}: duplicate key {key}")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            # re-read stripped, to raise the message naming the text
            number = _parse_float(value.strip(), "covariates", line_no, "value")
        entries[key] = number
    return CovariateTable(
        entries=entries,
        extra_names=tuple(extra_names),
        indicator_extras=frozenset(indicator_extras),
    )


def aggregate_window(panel: EventPanel, start: int, end: int) -> LaggedNetwork:
    """Collapse all events with period in [start, end] to binary edges.

    The node set is every node whose registry span intersects the window,
    so isolates that were merely present are carried along.
    """
    if start > end:
        raise ValueError(f"window start {start} exceeds end {end}")
    nodes = tuple(
        sorted(node for node, (lo, hi) in panel.registry.items() if lo <= end and hi >= start)
    )
    index = {node: k for k, node in enumerate(nodes)}
    ij = [(index[s], index[r]) for s, r, p in panel.events if start <= p <= end]
    A = np.zeros((len(nodes), len(nodes)))
    A[[i for i, _ in ij], [j for _, j in ij]] = 1.0
    A.flags.writeable = False
    return LaggedNetwork(window=(start, end), nodes=nodes, adjacency=A)


def eligible_dyads(panel: EventPanel, outcome_period: int) -> list[tuple[str, str]]:
    """All ordered pairs of distinct nodes active in the year before the
    outcome, in sorted order. New entrants at the outcome year are excluded."""
    prev = outcome_period - 1
    lo, hi = panel.period_range()
    if not (lo <= prev <= hi):
        raise ValueError(f"period {prev} outside data range [{lo},{hi}]")
    active = [n for n in panel.nodes() if panel.active(n, prev)]
    return [(i, j) for i in active for j in active if i != j]
