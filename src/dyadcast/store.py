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
from array import array
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class PeriodCovariates:
    """One period's covariates over the node ids in its rows.

    ``nodes`` is the sorted tuple of those ids; ``values`` and ``present``
    are read-only (names, n, n) arrays over the table's ``names``.
    ``values[c, a, b]`` holds name c for the dyad (nodes[a], nodes[b]) where
    ``present[c, a, b]``, and 0.0 where the table has no entry.
    """

    nodes: tuple[str, ...]
    values: np.ndarray
    present: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        return {node: k for k, node in enumerate(self.nodes)}


class CovariateEntries(Mapping):
    """Read-only ``(period, i, j, name) -> value`` view of a table's present
    cells, iterated in sorted-key order."""

    def __init__(self, table: "CovariateTable"):
        self._table = table
        self._column = {name: c for c, name in enumerate(table.names)}

    def __len__(self) -> int:
        return sum(int(block.present.sum()) for block in self._table.periods.values())

    def __getitem__(self, key) -> float:
        try:
            period, i, j, name = key
            block = self._table.periods[period]
            cell = self._column[name], block.index[i], block.index[j]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if not block.present[cell]:
            raise KeyError(key)
        return float(block.values[cell])

    def __iter__(self):
        return (key for key, _ in self._cells())

    def items(self):
        return _CellItems(self)

    def _cells(self):
        """(key, value) per present cell, in sorted-key order: period, then
        i and j (each block's nodes are sorted), then name."""
        names = self._table.names
        by_name = sorted(range(len(names)), key=names.__getitem__)
        sorted_names = [names[k] for k in by_name]
        for period in sorted(self._table.periods):
            block = self._table.periods[period]
            # (i, j, name) axes, names sorted: nonzero then walks keys in order
            cells = np.nonzero(block.present[by_name].transpose(1, 2, 0))
            values = block.values[by_name].transpose(1, 2, 0)[cells].tolist()
            nodes = block.nodes
            for a, b, c, value in zip(*(axis.tolist() for axis in cells), values):
                yield (period, nodes[a], nodes[b], sorted_names[c]), value


class _CellItems(ItemsView):
    """Items in one pass over each period's arrays, not a lookup per key."""

    def __iter__(self):
        return self._mapping._cells()


@dataclass(frozen=True, eq=False)
class CovariateTable:
    """Dyadic covariates, held per period as node-indexed arrays.

    ``names`` are the declared names with at least one entry, in declaration
    order; ``periods`` maps each period with entries to its
    `PeriodCovariates`. ``entries`` views the same cells keyed by
    ``(period, i, j, name)``. Only declared names are accepted: the
    canonical set plus any `extra_names`. Indicator covariates (the
    canonical ones and `indicator_extras`) must take values in {0,1}.

    Build a table with `from_entries`, `load_covariates` or `from_codes`,
    which the other two call.
    """

    periods: dict[int, PeriodCovariates]
    names: tuple[str, ...]
    extra_names: tuple[str, ...] = ()
    indicator_extras: frozenset[str] = frozenset()

    @cached_property
    def entries(self) -> CovariateEntries:
        return CovariateEntries(self)

    def names_present(self) -> list[str]:
        """Declared names with at least one entry, in declaration order."""
        return list(self.names)

    @classmethod
    def from_entries(cls, entries, extra_names=(), indicator_extras=frozenset()):
        """The table of a ``{(period, i, j, name): value}`` mapping; a bad
        entry is reported in the mapping's order."""
        periods: dict = {}
        ids: dict = {}
        names: dict = {}
        codes = [
            (periods.setdefault(period, len(periods)), ids.setdefault(i, len(ids)),
             ids.setdefault(j, len(ids)), names.setdefault(name, len(names)))
            for period, i, j, name in entries
        ]
        return cls.from_codes(
            (list(periods), list(ids), list(names)),
            np.array(codes, dtype=np.intp).reshape(-1, 4).T,
            list(entries.values()),
            extra_names,
            indicator_extras,
        )

    @classmethod
    def from_codes(cls, keys, codes, values, extra_names=(), indicator_extras=frozenset()):
        """The table of one entry per row, rows given as codes.

        ``keys`` is (periods, node ids, names), each a sequence of distinct
        values; ``codes`` is four integer arrays (period, i, j, name)
        indexing them, one element per row, and ``values`` the rows' values.
        Rows must have distinct keys. The first row, in row order, with an
        undeclared name or a non-binary indicator value raises
        ValidationError.
        """
        periods, ids, names = keys
        p, i, j, c = (np.asarray(code, dtype=np.intp) for code in codes)
        values = np.asarray(values, dtype=float)
        declared = CANONICAL_COVARIATES + tuple(extra_names)
        indicators = INDICATOR_COVARIATES | frozenset(indicator_extras)
        known = np.array([name in declared for name in names], dtype=bool)
        binary = np.array([name in indicators for name in names], dtype=bool)
        bad = ~known[c] | (binary[c] & (values != 0.0) & (values != 1.0))
        if bad.any():
            r = int(bad.argmax())
            name = names[c[r]]
            if not known[c[r]]:
                raise ValidationError(f"undeclared covariate name {name!r}")
            raise ValidationError(
                f"indicator covariate {name!r} has non-binary value {float(values[r])} "
                f"at ({periods[p[r]]},{ids[i[r]]},{ids[j[r]]})"
            )

        # columns: the names with rows, in declaration order
        used = np.zeros(len(names), dtype=bool)
        used[c] = True
        order = sorted(np.flatnonzero(used).tolist(), key=lambda k: declared.index(names[k]))
        column = np.zeros(len(names), dtype=np.intp)
        column[order] = np.arange(len(order))
        ranked = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        by_period = np.argsort(p, kind="stable")
        ends = np.searchsorted(p, np.arange(len(periods) + 1), sorter=by_period)
        blocks = {}
        for q in sorted(range(len(periods)), key=periods.__getitem__):
            rows = by_period[ends[q] : ends[q + 1]]
            if not len(rows):
                continue
            seen = np.zeros(len(ids), dtype=bool)
            seen[i[rows]] = seen[j[rows]] = True
            nodes = ranked[seen[ranked]]  # the period's ids, sorted
            position = np.zeros(len(ids), dtype=np.intp)
            position[nodes] = np.arange(len(nodes))
            cell = column[c[rows]], position[i[rows]], position[j[rows]]
            shape = (len(order), len(nodes), len(nodes))
            cells, present = np.zeros(shape), np.zeros(shape, dtype=bool)
            cells[cell] = values[rows]
            present[cell] = True
            cells.flags.writeable = present.flags.writeable = False
            blocks[periods[q]] = PeriodCovariates(
                nodes=tuple(ids[k] for k in nodes.tolist()), values=cells, present=present
            )
        return cls(
            periods=blocks,
            names=tuple(names[k] for k in order),
            extra_names=tuple(extra_names),
            indicator_extras=frozenset(indicator_extras),
        )


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

    Rows stream into code arrays (period, i, j, name) and a value array;
    years, node ids and names repeat on row after row, so each distinct raw
    text is parsed or stripped once per load, in memos kept apart so that a
    year ``1``, a node ``1`` and a name ``1`` never meet. Duplicate keys are
    found once the rows are in, but still reported ahead of any error on a
    later line."""
    keys: tuple[dict, dict, dict] = ({}, {}, {})  # period, node id, name -> code
    periods, ids, names = keys
    year_codes: dict = {}  # raw text -> code, one entry per distinct text
    id_codes: dict = {}
    name_codes: dict = {}
    codes = tuple(array("q") for _ in range(4))  # period, i, j, name per row
    lines, values = array("q"), array("d")
    put_line, put_value = lines.append, values.append
    put_p, put_i, put_j, put_name = (column.append for column in codes)
    try:
        for line_no, (y, i, j, name, value) in _read_rows(
            cov_csv, COVARIATES_HEADER, "covariates"
        ):
            try:
                p, a, b, c = year_codes[y], id_codes[i], id_codes[j], name_codes[name]
            except KeyError:
                if y not in year_codes:
                    period = _parse_int(y.strip(), "covariates", line_no, "year")
                    year_codes[y] = periods.setdefault(period, len(periods))
                for memo, key, text in ((id_codes, ids, i), (id_codes, ids, j),
                                        (name_codes, names, name)):
                    if text not in memo:
                        memo[text] = key.setdefault(text.strip(), len(key))
                p, a, b, c = year_codes[y], id_codes[i], id_codes[j], name_codes[name]
            put_line(line_no)
            put_p(p)
            put_i(a)
            put_j(b)
            put_name(c)
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                # re-read stripped, to raise the message naming the text
                number = _parse_float(value.strip(), "covariates", line_no, "value")
            put_value(number)
    except ParseError:
        # a duplicate on this line or an earlier one comes first
        _raise_first_duplicate(codes, lines, keys)
        raise
    _raise_first_duplicate(codes, lines, keys)
    return CovariateTable.from_codes(
        tuple(map(list, keys)),
        [np.frombuffer(column, dtype=np.int64) for column in codes],
        np.frombuffer(values, dtype=float),
        extra_names,
        indicator_extras,
    )


def _raise_first_duplicate(codes, lines, keys) -> None:
    """Raise the ParseError of the first row, in row order, whose key an
    earlier row holds; rows are ``codes`` into ``keys``, as
    `load_covariates` collects them."""
    p, i, j, c = (np.frombuffer(column, dtype=np.int64) for column in codes)
    periods, ids, names = (list(key) for key in keys)
    # one integer per key (distinct keys, distinct integers), ordered stably,
    # so each key's rows stay in row order and all but the first repeat it
    packed = ((p * len(ids) + i) * len(ids) + j) * len(names) + c
    order = np.argsort(packed, kind="stable")
    repeats = order[1:][packed[order[1:]] == packed[order[:-1]]]
    if len(repeats):
        r = int(repeats.min())
        key = (periods[p[r]], ids[i[r]], ids[j[r]], names[c[r]])
        raise ParseError(f"covariates: line {lines[r]}: duplicate key {key}")


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
