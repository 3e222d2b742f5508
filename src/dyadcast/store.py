"""Event panel ingestion, lagged aggregation, and dyad eligibility.

Periods are integer years. Sub-annual data must be binned to years by the
caller before ingestion.

The three input CSVs, and the cells file `harness.read_cells_csv` reads
back, are read by one reader, `_read_rows`, in blocks of `CHUNK_ROWS` rows:
each block is one flat list of fields, so no Python code runs per row until
a loader asks for it. The event and registry loaders then walk each block's
rows; the covariate loader codes each block's columns at once, so its
set-up time is mostly `csv` parsing and its memory is the code arrays it
fills. Every loader reports the first malformed line in file order, as a
row-by-row loop would.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import operator
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

# Rows per block of `_read_rows`. Coding a block's columns costs about the
# same per row for blocks of 512 to 8,192 rows; at 1,024 a covariate load's
# peak RSS stays within 0.3 MB of a row-at-a-time loop's, where blocks of
# 2,048 left it up to 1.3 MB higher (the allocator keeps the arenas that a
# block's strings were spread over).
CHUNK_ROWS = 1024


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
    giving a text stream, which decodes paths and bytes as UTF-8 as it is
    read. Only a file opened here is closed on exit."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", newline="", encoding="utf-8")
    if isinstance(source, bytes):
        return io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", newline="")
    return contextlib.nullcontext(source)


def _unreadable(exc, label, reader) -> ParseError:
    """The ParseError of a csv.Error, at the reader's line, or of text that
    is not UTF-8, at no line: the text is decoded in chunks, so the rows
    before the bad byte may not have been read yet."""
    if isinstance(exc, UnicodeDecodeError):
        byte = exc.object[exc.start]
        return ParseError(f"{label}: byte {byte:#04x} is not UTF-8 text ({exc.reason})")
    return ParseError(f"{label}: line {reader.line_num}: {exc}")


def _read_rows(source, expected_header, label):
    """Yield the data rows in blocks of up to `CHUNK_ROWS`, as (fields,
    blanks): ``fields`` is one flat list of the block's raw fields, row
    after row, and ``blanks`` the line numbers of the blank rows skipped
    since the previous block, so `_line_of` numbers every row. A row of the
    wrong width raises ParseError only once the block before it was handed
    over: a caller that checks each block in full reports the first
    malformed line in file order. So does a line the `csv` module cannot
    read, or text that is not UTF-8 (see `_unreadable`). Surrounding
    whitespace is not part of a value: each caller strips the fields it
    reads."""
    width = len(expected_header)
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{label}: empty input, expected header {expected_header}")
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _unreadable(exc, label, reader) from None
        header = [h.strip() for h in header]
        if header != list(expected_header):
            raise ParseError(
                f"{label}: line 1: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        line_no, blanks = 2, []  # the next row's line; blank lines not yet handed over
        while True:
            fields, ends, failure = [], [], None
            try:
                # each row is added to the block's list as it is read and then
                # dropped; the list's running lengths are where the rows end,
                # and on an error they hold the rows read before it
                ends += map(len, itertools.accumulate(
                    itertools.islice(reader, CHUNK_ROWS), operator.iadd, initial=fields
                ))
            except (csv.Error, UnicodeDecodeError) as exc:
                # raised below, once the rows before it are handed over
                failure = _unreadable(exc, label, reader)
            if ends != list(range(0, width * len(ends), width)):
                fields, kept = [], fields
                for line, start, stop in zip(itertools.count(line_no), ends, ends[1:]):
                    if stop - start == width:
                        fields += kept[start:stop]
                    elif start == stop or (stop - start == 1 and not kept[start].strip()):
                        blanks.append(line)
                    else:
                        if fields:
                            yield fields, blanks
                        raise ParseError(
                            f"{label}: line {line}: expected {width} fields, got {stop - start}"
                        )
            line_no += len(ends) - 1
            if fields:
                yield fields, blanks
                blanks = []
            if failure is not None:
                raise failure
            if len(ends) <= CHUNK_ROWS:  # fewer rows than asked for: the end
                return


def _line_of(blank_lines, row) -> int:
    """The line of data row ``row`` (0-based, blank rows not counted) of a
    file whose blank rows before it are on ``blank_lines``, in order."""
    line = row + 2  # the header is line 1
    for blank in blank_lines:
        if blank > line:
            break
        line += 1
    return line


def _write_rows(path, header, rows) -> None:
    """Write the header and then each row, in the dialect _read_rows reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _stripped_rows(fields, width):
    """A block's rows, as tuples of stripped fields."""
    return zip(*[map(str.strip, fields)] * width)


def _parse_int(text, label, blank_lines, row, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"{label}: line {_line_of(blank_lines, row)}: {what} {text!r} is not an integer"
        )


def _parse_float(text, label, blank_lines, row, what):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"{label}: line {_line_of(blank_lines, row)}: {what} {text!r} is not a number"
        )
    if not math.isfinite(value):
        raise ParseError(
            f"{label}: line {_line_of(blank_lines, row)}: {what} {text!r} is not a finite number"
        )
    return value


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def load_events(events_csv, registry_csv=None) -> EventPanel:
    """Read an event panel from CSV.

    events_csv has header ``sender,receiver,year``. registry_csv, when
    given, has header ``node,first_year,last_year``; otherwise each node's
    span is inferred as [first, last] observed involvement year.
    """
    events, blank_lines = [], []
    for fields, blanks in _read_rows(events_csv, EVENTS_HEADER, "events"):
        blank_lines += blanks
        for s, r, y in _stripped_rows(fields, 3):
            if not s or not r:
                raise ParseError(
                    f"events: line {_line_of(blank_lines, len(events))}: empty node id"
                )
            events.append((s, r, _parse_int(y, "events", blank_lines, len(events), "year")))

    if registry_csv is not None:
        registry, blank_lines = {}, []
        for fields, blanks in _read_rows(registry_csv, REGISTRY_HEADER, "registry"):
            blank_lines += blanks
            for node, lo, hi in _stripped_rows(fields, 3):
                row = len(registry)
                if node in registry:
                    raise ParseError(
                        f"registry: line {_line_of(blank_lines, row)}: duplicate node {node!r}"
                    )
                registry[node] = (
                    _parse_int(lo, "registry", blank_lines, row, "first_year"),
                    _parse_int(hi, "registry", blank_lines, row, "last_year"),
                )
        registry = dict(sorted(registry.items()))
    else:
        registry = EventPanel.infer_registry(events)

    return EventPanel(events=tuple(events), registry=registry)


def _coded(texts, memo, key, parse) -> np.ndarray:
    """The int64 codes of ``texts``. ``memo`` maps each raw text met before
    to its code; a new text is parsed once, and ``key`` gives each parsed
    value a code in order of first occurrence."""
    try:
        return np.fromiter(map(memo.__getitem__, texts), np.int64, len(texts))
    except KeyError:
        for text in dict.fromkeys(texts):
            if text not in memo:
                memo[text] = key.setdefault(parse(text), len(key))
        return np.fromiter(map(memo.__getitem__, texts), np.int64, len(texts))


def load_covariates(cov_csv, extra_names=(), indicator_extras=()) -> CovariateTable:
    """Read a long-form covariate table with header ``year,i,j,name,value``.

    The file is read in blocks of `CHUNK_ROWS` rows, and each block's
    columns are coded at once into code arrays (period, i, j, name) and a
    value array, so memory does not grow with the row count beyond those
    arrays. Years, node ids and names repeat on row after row, so each
    distinct raw text is parsed or stripped once per load, in memos kept
    apart so that a year ``1``, a node ``1`` and a name ``1`` never meet.
    Errors come as a row-by-row reader finds them: the first bad line in
    file order, where a bad year comes first, then a key that an earlier
    line holds, then a bad value; an undeclared name or a non-binary
    indicator value is reported once every line is read."""
    keys: tuple[dict, dict, dict] = ({}, {}, {})  # period, node id, name -> code
    periods, ids, names = keys
    year_codes, id_codes, name_codes = {}, {}, {}  # raw text -> code
    codes = tuple(array("q") for _ in range(4))  # period, i, j, name per row
    values = array("d")
    blank_lines: list = []
    try:
        for fields, blanks in _read_rows(cov_csv, COVARIATES_HEADER, "covariates"):
            blank_lines += blanks
            years, i, j, name, texts = (fields[k::5] for k in range(5))
            n = bad_year = len(texts)
            try:  # int() ignores surrounding whitespace, as str.strip() does
                coded = [_coded(years, year_codes, periods, int)]
            except ValueError:  # a year that is not an integer: find its first row
                bad_year = list(map(year_codes.__contains__, years)).index(False)
                coded = [_coded(years[:bad_year], year_codes, periods, int)]
            coded += (_coded(i, id_codes, ids, str.strip), _coded(j, id_codes, ids, str.strip),
                      _coded(name, name_codes, names, str.strip))
            try:
                numbers = np.fromiter(map(float, texts), float, n)
            except ValueError:
                numbers = np.fromiter(map(_float_or_nan, texts), float, n)
            finite = np.isfinite(numbers)
            bad_value = n if finite.all() else int(finite.argmin())
            # the rows before the first bad one go in, and a bad value's own
            # row too, as a duplicate key on its line is reported first
            end = min(bad_year, bad_value + 1)
            for code, chunk in zip(codes, coded):
                code.frombytes(chunk[:end].tobytes())
            values.frombytes(numbers[:end].tobytes())
            if bad_value < bad_year:
                row = len(values) - 1
                _parse_float(texts[bad_value].strip(), "covariates", blank_lines, row, "value")
            elif bad_year < n:
                _parse_int(years[bad_year].strip(), "covariates", blank_lines, len(values), "year")
    except ParseError:
        # a duplicate on this line or an earlier one comes first
        _raise_first_duplicate(codes, blank_lines, keys)
        raise
    _raise_first_duplicate(codes, blank_lines, keys)
    return CovariateTable.from_codes(
        tuple(map(list, keys)),
        [np.frombuffer(column, dtype=np.int64) for column in codes],
        np.frombuffer(values, dtype=float),
        extra_names,
        indicator_extras,
    )


def _raise_first_duplicate(codes, blank_lines, keys) -> None:
    """Raise the ParseError of the first row, in row order, whose key an
    earlier row holds; rows are ``codes`` into ``keys``, as
    `load_covariates` collects them, and ``blank_lines`` numbers them."""
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
        raise ParseError(f"covariates: line {_line_of(blank_lines, r)}: duplicate key {key}")


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


def dyad_positions(index: dict[str, int], dyads) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in ``index`` of each dyad's ids (-1 if absent), and where both are present."""
    I = np.array([index.get(i, -1) for i, _ in dyads], dtype=np.intp)
    J = np.array([index.get(j, -1) for _, j in dyads], dtype=np.intp)
    return I, J, (I >= 0) & (J >= 0)


def eligible_dyads(panel: EventPanel, outcome_period: int) -> list[tuple[str, str]]:
    """All ordered pairs of distinct nodes active in the year before the
    outcome, in sorted order. New entrants at the outcome year are excluded."""
    prev = outcome_period - 1
    lo, hi = panel.period_range()
    if not (lo <= prev <= hi):
        raise ValueError(f"period {prev} outside data range [{lo},{hi}]")
    active = [n for n in panel.nodes() if panel.active(n, prev)]
    return [(i, j) for i in active for j in active if i != j]
