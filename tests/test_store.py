import csv
import gc
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dyadcast import (
    CANONICAL_COVARIATES,
    CovariateTable,
    Dyads,
    EventPanel,
    ParseError,
    SyntheticSpec,
    ValidationError,
    aggregate_window,
    eligible_dyads,
    generate_synthetic,
    load_covariates,
    load_events,
    save_synthetic,
)
from dyadcast.store import CHUNK_ROWS, COVARIATES_HEADER, EVENTS_HEADER, REGISTRY_HEADER
from helpers import (
    dyad_positions_oracle, edge_set, eligible_dyads_oracle, events_at, load_covariates_oracle,
    load_events_oracle, make_panel, pair_names,
)


def test_events_canonical_order():
    a = make_panel([("b", "a", 2), ("a", "b", 1), ("a", "c", 1)])
    b = make_panel([("a", "c", 1), ("b", "a", 2), ("a", "b", 1)])
    assert a.events == b.events == (("a", "b", 1), ("a", "c", 1), ("b", "a", 2))
    assert a == b


def test_duplicate_events_retained():
    panel = make_panel([("a", "b", 1), ("a", "b", 1)])
    assert len(panel.events) == 2
    # aggregation collapses the duplicates to one binary edge
    assert edge_set(aggregate_window(panel, 1, 1)) == frozenset({("a", "b")})


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        make_panel([("a", "a", 1)])


def test_unregistered_node_rejected():
    with pytest.raises(ValidationError):
        EventPanel(events=(("a", "b", 1),), registry={"a": (1, 2)})


def test_event_outside_span_rejected():
    with pytest.raises(ValidationError):
        EventPanel(events=(("a", "b", 5),), registry={"a": (1, 4), "b": (1, 9)})


def test_empty_registry_span_rejected():
    with pytest.raises(ValidationError):
        EventPanel(events=(), registry={"a": (3, 1)})


def test_infer_registry_spans():
    reg = EventPanel.infer_registry([("a", "b", 3), ("b", "a", 7), ("a", "c", 5)])
    assert reg == {"a": (3, 7), "b": (3, 7), "c": (5, 5)}


def test_events_at():
    """A one-period window holds that period's events, as the oracle
    reads them off the event list; a period without events has none."""
    panel = make_panel([("a", "b", 1), ("b", "a", 2), ("a", "b", 2)])
    assert events_at(panel, 2) == frozenset({("b", "a"), ("a", "b")})
    assert edge_set(aggregate_window(panel, 2, 2)) == events_at(panel, 2)
    assert events_at(panel, 9) == edge_set(aggregate_window(panel, 9, 9)) == frozenset()


def test_aggregate_window_examples():
    panel = make_panel([("a", "b", 1990), ("a", "b", 1992)])
    assert edge_set(aggregate_window(panel, 1988, 1992)) == frozenset({("a", "b")})
    assert edge_set(aggregate_window(panel, 1991, 1992)) == frozenset({("a", "b")})
    assert edge_set(aggregate_window(panel, 1991, 1991)) == frozenset()


def test_aggregate_window_carries_isolates():
    panel = EventPanel(
        events=(("a", "b", 2),),
        registry={"a": (1, 5), "b": (1, 5), "c": (1, 3), "d": (4, 5)},
    )
    net = aggregate_window(panel, 1, 3)
    assert net.nodes == ("a", "b", "c")  # d's span starts later
    net2 = aggregate_window(panel, 4, 5)
    assert net2.nodes == ("a", "b", "d")
    assert edge_set(net2) == frozenset()


def test_aggregate_window_bad_bounds():
    panel = make_panel([("a", "b", 1)])
    with pytest.raises(ValueError):
        aggregate_window(panel, 3, 2)


@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"), st.integers(1, 6)),
        max_size=20,
    ).map(lambda evs: [e for e in evs if e[0] != e[1]]),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_aggregate_window_is_union_of_period_slices(events, start, end):
    if start > end:
        start, end = end, start
    registry = {n: (1, 6) for n in "abcd"}
    panel = EventPanel(events=tuple(events), registry=registry)
    expected = set()
    for p in range(start, end + 1):
        expected |= set(events_at(panel, p))
    net = aggregate_window(panel, start, end)
    assert edge_set(net) == frozenset(expected)
    assert net.adjacency.tolist() == [[float((i, j) in expected) for j in "abcd"] for i in "abcd"]
    assert not net.adjacency.flags.writeable


@given(
    st.dictionaries(
        st.sampled_from(["n10", "n9", "b", "B", "a2", "a10"]),
        st.tuples(st.integers(1, 6), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
        min_size=2,
    ),
    st.data(),
)
def test_aggregate_window_adjacency_matches_events(registry, data):
    """The matrix holds a 1 exactly at the window's events, in sorted node
    order over every node whose span meets the window, whatever the
    registry's order."""
    start = data.draw(st.integers(1, 9))
    end = data.draw(st.integers(start, 9))
    names = list(registry)  # insertion order, not sorted
    events = data.draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names), st.integers(1, 9)),
            max_size=25,
        )
    )
    events = [
        (s, r, p) for s, r, p in events
        if s != r and all(registry[n][0] <= p <= registry[n][1] for n in (s, r))
    ]
    panel = EventPanel(events=tuple(events), registry=registry)
    net = aggregate_window(panel, start, end)
    nodes = sorted(n for n, (lo, hi) in registry.items() if lo <= end and hi >= start)
    assert net.nodes == tuple(nodes)
    want = [[0.0] * len(nodes) for _ in nodes]
    for s, r, p in events:
        if start <= p <= end:
            want[nodes.index(s)][nodes.index(r)] = 1.0
    assert net.adjacency.tolist() == want
    assert net.index == {n: k for k, n in enumerate(nodes)}
    if nodes:
        with pytest.raises(ValueError, match="read-only"):
            net.adjacency[0, 0] = 1.0


def test_content_hash_ignores_window_bounds():
    panel = make_panel([("a", "b", 1), ("a", "b", 4)])
    n1 = aggregate_window(panel, 1, 2)
    n2 = aggregate_window(panel, 3, 4)
    assert n1.window != n2.window
    assert n1.content_hash() == n2.content_hash()
    n3 = aggregate_window(panel, 1, 4)
    assert n3.content_hash() == n1.content_hash()


def test_content_hash_sees_edges_and_nodes():
    panel = EventPanel(
        events=(("a", "b", 1), ("b", "c", 2)),
        registry={"a": (1, 2), "b": (1, 2), "c": (1, 2)},
    )
    h1 = aggregate_window(panel, 1, 1).content_hash()
    h2 = aggregate_window(panel, 1, 2).content_hash()
    assert h1 != h2
    bigger = EventPanel(
        events=(("a", "b", 1),),
        registry={"a": (1, 2), "b": (1, 2), "c": (1, 2), "d": (1, 2)},
    )
    assert aggregate_window(bigger, 1, 1).content_hash() != h1


def test_eligible_dyads_all_ordered_pairs():
    panel = EventPanel(events=(), registry={"a": (1, 5), "b": (1, 5), "c": (1, 5)})
    dyads = pair_names(eligible_dyads(panel, 3))
    assert len(dyads) == 6
    assert dyads == sorted(dyads)
    assert ("a", "b") in dyads and ("b", "a") in dyads


def test_eligible_dyads_excludes_entrants():
    panel = EventPanel(events=(), registry={"a": (1, 2), "b": (1, 5), "c": (3, 5)})
    # c enters at 3, inactive at 2; a leaves after 2, so it is still eligible at 3
    assert pair_names(eligible_dyads(panel, 3)) == [("a", "b"), ("b", "a")]
    assert pair_names(eligible_dyads(panel, 4)) == [("b", "c"), ("c", "b")]


def test_eligible_dyads_single_node():
    panel = EventPanel(events=(), registry={"a": (1, 5)})
    assert pair_names(eligible_dyads(panel, 3)) == []


def test_eligible_dyads_out_of_range():
    panel = EventPanel(events=(), registry={"a": (1, 5), "b": (1, 5)})
    with pytest.raises(ValueError):
        eligible_dyads(panel, 1)  # period 0 has no data
    with pytest.raises(ValueError):
        eligible_dyads(panel, 7)


@settings(max_examples=150)
@given(st.data())
def test_one_pair_order_for_designs_and_the_generator(data):
    """On a registry with entries and exits, `eligible_dyads` holds the
    nested loop's pairs, and `Dyads.at` the per-dyad lookups' positions,
    absent ids included; the generator draws over the pairs that
    `eligible_dyads` gives on its own world."""
    names = data.draw(st.lists(st.text("abxy", min_size=1, max_size=2), min_size=1, max_size=7,
                               unique=True))
    spans = st.tuples(st.integers(1, 6), st.integers(1, 6)).map(sorted).map(tuple)
    panel = EventPanel(events=(), registry={name: data.draw(spans) for name in names})
    lo, hi = panel.period_range()
    t = data.draw(st.integers(lo + 1, hi + 1))
    dyads = eligible_dyads(panel, t)
    assert pair_names(dyads) == eligible_dyads_oracle(panel, t)

    held = data.draw(st.lists(st.sampled_from(names + ["z"]), unique=True))
    index = {name: k for k, name in enumerate(held)}
    got, want = dyads.at(index), dyad_positions_oracle(index, pair_names(dyads))
    assert [(a.dtype, a.tolist()) for a in got] == [(a.dtype, a.tolist()) for a in want]

    made = []
    among = Dyads.among
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dyads, "among", lambda nodes: made.append(among(nodes)) or made[-1])
        world, _, _ = generate_synthetic(SyntheticSpec(n_nodes=data.draw(st.integers(2, 6)),
                                                       periods=2))
    (drawn,) = made
    for period in (1, 2):
        assert pair_names(drawn) == pair_names(eligible_dyads(world, period + 1))


@given(st.data())
def test_eligibility_monotone_in_registry(data):
    """Removing a node from the registry never adds dyads."""
    nodes = data.draw(st.sets(st.sampled_from("abcde"), min_size=2, max_size=5))
    registry = {n: (1, 5) for n in nodes}
    panel = EventPanel(events=(), registry=registry)
    full = set(pair_names(eligible_dyads(panel, 3)))
    drop = data.draw(st.sampled_from(sorted(nodes)))
    smaller = EventPanel(events=(), registry={n: s for n, s in registry.items() if n != drop})
    if len(smaller.registry) >= 1:
        assert set(pair_names(eligible_dyads(smaller, 3))) <= full


# ------------------------------------------------------------- CSV input

def test_node_ids_with_a_control_character_are_refused():
    """A node id may not hold U+0000 to U+001F once its surrounding
    whitespace is stripped: the events and registry readers name the first
    such line, and EventPanel refuses such a registry id before it checks
    any event."""
    with pytest.raises(ParseError) as exc:
        load_events(b"sender,receiver,year\na,b,1\nb,a\x01b,2\n")
    assert str(exc.value) == "events: line 3: node id 'a\\x01b' has a control character"
    with pytest.raises(ParseError) as exc:
        load_events(b"sender,receiver,year\n", b"node,first_year,last_year\na,1,2\n\x01b,1,2\n")
    assert str(exc.value) == "registry: line 3: node id '\\x01b' has a control character"
    with pytest.raises(ValidationError) as exc:
        EventPanel(events=(("a", "a", 1),), registry={"a": (1, 2), "c\x1fd": (1, 2)})
    assert str(exc.value) == "node id 'c\\x1fd' has a control character"
    # \x1c to \x1f are whitespace to str.strip, so only inner ones remain
    assert load_events(b"sender,receiver,year\n\x1fa,b\x1c,1\n").events == (("a", "b", 1),)
    # covariate ids are never hashed and are read only for registered nodes
    table = load_covariates(b"year,i,j,name,value\n1,a,b\x01,contiguity,1\n")
    assert table.periods[1].nodes == ("a", "b\x01")


EVENTS_CSV = "sender,receiver,year\na,b,1990\nb,a,1991\n"


def test_load_events_infers_registry():
    panel = load_events(io.StringIO(EVENTS_CSV))
    assert panel.events == (("a", "b", 1990), ("b", "a", 1991))
    assert panel.registry == {"a": (1990, 1991), "b": (1990, 1991)}


def test_load_events_with_registry():
    reg = "node,first_year,last_year\na,1980,1995\nb,1980,1995\nc,1980,1995\n"
    panel = load_events(io.StringIO(EVENTS_CSV), io.StringIO(reg))
    assert panel.registry["c"] == (1980, 1995)


def test_load_events_accepts_bytes():
    panel = load_events(EVENTS_CSV.encode())
    assert len(panel.events) == 2


def test_load_events_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        load_events(io.StringIO("src,dst,year\na,b,1990\n"))


def test_load_events_empty_input():
    with pytest.raises(ParseError, match="empty"):
        load_events(io.StringIO(""))


def test_load_events_field_count_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        load_events(io.StringIO("sender,receiver,year\na,b,1990\na,b\n"))


def test_load_events_non_integer_year():
    with pytest.raises(ParseError, match="line 2"):
        load_events(io.StringIO("sender,receiver,year\na,b,soon\n"))


def test_first_malformed_line_in_file_order_is_reported():
    # a bad year on line 2 is found before the short row on line 3 is read
    with pytest.raises(ParseError, match="line 2"):
        load_events(io.StringIO("sender,receiver,year\na,b,soon\na,b\n"))


def test_loading_closes_the_files_it_opens_and_no_others(tmp_path):
    (tmp_path / "events.csv").write_text(EVENTS_CSV)
    (tmp_path / "registry.csv").write_text(
        "node,first_year,last_year\na,1980,1995\nb,1980,1995\n"
    )
    (tmp_path / "cov.csv").write_text(COV_CSV)
    (tmp_path / "bad.csv").write_text("sender,receiver,year\na,b,soon\na,b,1990\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_events(tmp_path / "events.csv", str(tmp_path / "registry.csv"))
        load_covariates(tmp_path / "cov.csv")
        with pytest.raises(ParseError, match="line 2"):
            load_events(tmp_path / "bad.csv")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    stream = io.StringIO(EVENTS_CSV)
    load_events(stream)
    assert not stream.closed


def test_load_events_blank_node():
    with pytest.raises(ParseError, match="line 2"):
        load_events(io.StringIO("sender,receiver,year\n,b,1990\n"))


def test_registry_duplicate_node():
    reg = "node,first_year,last_year\na,1,2\na,3,4\n"
    with pytest.raises(ParseError, match="duplicate"):
        load_events(io.StringIO(EVENTS_CSV), io.StringIO(reg))


def test_padding_around_event_and_registry_fields_is_ignored():
    padded = load_events(
        io.StringIO("sender,receiver,year\n n00 , n05 , 1 \n\tn05\t,\tn00\t,\t2\t\n"),
        io.StringIO("node,first_year,last_year\n n00 , 1 , 2 \n\tn05\t,\t1\t,\t2\t\n"),
    )
    plain = load_events(
        io.StringIO("sender,receiver,year\nn00,n05,1\nn05,n00,2\n"),
        io.StringIO("node,first_year,last_year\nn00,1,2\nn05,1,2\n"),
    )
    assert padded == plain
    assert padded.events == (("n00", "n05", 1), ("n05", "n00", 2))
    assert padded.registry == {"n00": (1, 2), "n05": (1, 2)}


@pytest.mark.parametrize(
    "events,registry,message",
    [
        (" a , b , soon \n", None, "events: line 2: year 'soon' is not an integer"),
        (" \t , b , 1 \n", None, "events: line 2: empty node id"),
        (" a , b \n", None, "events: line 2: expected 3 fields, got 2"),
        ("a,b,1\n", " a , x , 2 \n", "registry: line 2: first_year 'x' is not an integer"),
        ("a,b,1\n", "a,1,2\nb,1,2\n a ,3,4\n", "registry: line 4: duplicate node 'a'"),
    ],
    ids=["year", "empty-node", "short-row", "registry-year", "registry-duplicate"],
)
def test_padded_fields_keep_their_line_numbered_messages(events, registry, message):
    registry_csv = None if registry is None else io.StringIO("node,first_year,last_year\n" + registry)
    with pytest.raises(ParseError) as info:
        load_events(io.StringIO("sender,receiver,year\n" + events), registry_csv)
    assert str(info.value) == message


COV_CSV = (
    "year,i,j,name,value\n"
    "1990,a,b,trade-dependence,0.25\n"
    "1990,a,b,joint-democracy,1\n"
)


def test_load_covariates():
    table = load_covariates(io.StringIO(COV_CSV))
    assert table.entries.get((1990, "a", "b", "trade-dependence")) == 0.25
    assert table.entries.get((1990, "a", "b", "joint-democracy")) == 1.0
    assert table.entries.get((1990, "b", "a", "trade-dependence")) is None


def test_load_covariates_duplicate_key():
    dup = COV_CSV + "1990,a,b,trade-dependence,0.5\n"
    with pytest.raises(ParseError, match="duplicate"):
        load_covariates(io.StringIO(dup))


def test_load_covariates_bad_value():
    bad = "year,i,j,name,value\n1990,a,b,trade-dependence,much\n"
    with pytest.raises(ParseError, match="line 2"):
        load_covariates(io.StringIO(bad))


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_covariates_rejects_non_finite_value(text):
    bad = COV_CSV + f"1991,a,b,CINC-ratio,{text}\n"
    with pytest.raises(ParseError) as info:
        load_covariates(io.StringIO(bad))
    assert str(info.value) == f"covariates: line 4: value {text!r} is not a finite number"


def test_load_covariates_keys_share_their_strings():
    rows = "".join(
        f"{year},node-a,node-b,{name},0.5\n"
        for year in (1990, 1991) for name in ("trade-dependence", "CINC-ratio")
    )
    table = load_covariates(io.StringIO("year,i,j,name,value\n" + rows))
    keys = list(table.entries)
    for position in (1, 2, 3):
        assert len({id(key[position]) for key in keys}) == len({key[position] for key in keys})


@pytest.mark.parametrize(
    "rows,message",
    [
        # the duplicate is only found once the rows are in, yet comes first
        ("1,a,b,CINC-ratio,1\n1,a,b,CINC-ratio,2\n1,a,c,CINC-ratio,x\n",
         "covariates: line 3: duplicate key (1, 'a', 'b', 'CINC-ratio')"),
        ("1,a,b,CINC-ratio,1\n1,a,b,CINC-ratio,2\n1,a,c\n",
         "covariates: line 3: duplicate key (1, 'a', 'b', 'CINC-ratio')"),
        # on one line the duplicate comes before the value
        ("1,a,b,CINC-ratio,1\n\n1,a,b,CINC-ratio,x\n",
         "covariates: line 4: duplicate key (1, 'a', 'b', 'CINC-ratio')"),
        # the earliest second occurrence wins, not the earliest first one
        ("1,a,b,CINC-ratio,1\n1,a,c,CINC-ratio,1\n1,a,c,CINC-ratio,1\n1,a,b,CINC-ratio,1\n",
         "covariates: line 4: duplicate key (1, 'a', 'c', 'CINC-ratio')"),
        ("1,a,b,CINC-ratio,1\nsoon,a,b,CINC-ratio,1\n1,a,b,CINC-ratio,2\n",
         "covariates: line 3: year 'soon' is not an integer"),
        ("1,a,b,CINC-ratio,x\n1,a,b,CINC-ratio,1\n",
         "covariates: line 2: value 'x' is not a number"),
        ("1,a,b,CINC-ratio,1\n1,a,b,coolness,1\n1,a,b,contiguity,0.5\n1,a,b,rivalry,1\n",
         "undeclared covariate name 'coolness'"),
        ("1,a,b,CINC-ratio,1\n2,b,a,contiguity,0.5\n1,a,b,coolness,1\n",
         "indicator covariate 'contiguity' has non-binary value 0.5 at (2,b,a)"),
        # a parse error on a later line beats an earlier undeclared name
        ("1,a,b,coolness,1\n1,a,b,CINC-ratio,x\n",
         "covariates: line 3: value 'x' is not a number"),
    ],
    ids=["dup-then-value", "dup-then-short-row", "dup-and-value", "first-second-occurrence",
         "year-then-dup", "value-then-dup", "undeclared", "non-binary", "parse-first"],
)
def test_load_covariates_reports_the_first_bad_line(rows, message):
    with pytest.raises((ParseError, ValidationError)) as info:
        load_covariates(io.StringIO("year,i,j,name,value\n" + rows))
    assert str(info.value) == message


def test_padded_years_and_ids_collapse_to_one_key():
    rows = "1,a,b,CINC-ratio,0.5\n 1 ,a,\tb, CINC-ratio ,0.5\n"
    with pytest.raises(ParseError) as info:
        load_covariates(io.StringIO("year,i,j,name,value\n" + rows))
    assert str(info.value) == "covariates: line 3: duplicate key (1, 'a', 'b', 'CINC-ratio')"
    table = load_covariates(io.StringIO("year,i,j,name,value\n 01 , a ,b,CINC-ratio,0.5\n"))
    assert dict(table.entries) == {(1, "a", "b", "CINC-ratio"): 0.5}
    assert table.periods[1].nodes == ("a", "b")


def test_table_arrays_hold_each_period_over_its_own_ids():
    table = load_covariates(io.StringIO(
        "year,i,j,name,value\n"
        "2,c,a,CINC-ratio,-0.0\n1,b,a,contiguity,1\n2,a,b,contiguity,0\n1,a,b,CINC-ratio,3\n"
    ))
    assert table.names == ("CINC-ratio", "contiguity")
    assert list(table.periods) == [1, 2]
    one, two = table.periods[1], table.periods[2]
    assert (one.nodes, two.nodes) == (("a", "b"), ("a", "b", "c"))
    assert one.values.shape == one.present.shape == (2, 2, 2)
    assert two.values.shape == (2, 3, 3) and two.present.sum() == 2
    assert one.values[0, 0, 1] == 3.0 and one.present[1, 1, 0] and not one.present[0, 1, 0]
    assert math.copysign(1.0, two.values[0, 2, 0]) == -1.0
    assert not one.values.flags.writeable and not two.present.flags.writeable
    assert list(table.entries) == [
        (1, "a", "b", "CINC-ratio"), (1, "b", "a", "contiguity"),
        (2, "a", "b", "contiguity"), (2, "c", "a", "CINC-ratio"),
    ]
    assert len(table.entries) == 4
    assert (1, "a", "b", "contiguity") not in table.entries
    assert (3, "a", "b", "CINC-ratio") not in table.entries
    assert ("a", "b") not in table.entries
    with pytest.raises(TypeError):
        table.entries[(1, "a", "b", "CINC-ratio")] = 1.0


def test_entries_count_the_data_rows(tmp_path):
    """perfbench's store.covariate_rows reads len(table.entries)."""
    panel, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=7, periods=3, time_varying_covariates=True, seed=2)
    )
    path = save_synthetic(panel, table, tmp_path)["covariates"]
    with open(path) as fh:
        rows = sum(1 for _ in fh) - 1
    assert len(load_covariates(path).entries) == len(table.entries) == rows == 3 * 42 * 4


def _padded(good, bad):
    """A field that is usually one of ``good``, around one bad text in ten."""
    core = st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(good),
                     st.sampled_from(good + bad))
    return st.tuples(st.sampled_from(["", "", " ", "\t", " \t "]), core,
                     st.sampled_from(["", "", " ", "\t", "  "])).map("".join)


# "1" is a year, a node id and (declared in the test) a name at once
COV_FIELDS = (
    _padded(["1", "2", "01", "+2"], ["x", "1.5", ""]),
    _padded(["a", "1", "a,b", '"q"'], []),
    _padded(["a", "b", "1", "a,b"], []),
    _padded(["CINC-ratio", "contiguity", "1"], []),
    _padded(["0", "1", "0.5", "-0.0", "1e-300", "0.1"], ["nan", "inf", "-inf", "1e400", "x", ""]),
)


@st.composite
def csv_rows(draw, fields):
    """Data rows of ``fields``, with up to three blank lines and, in one
    example in three, a row of the wrong width, each put in at a drawn
    position."""
    rows = draw(st.lists(st.tuples(*fields).map(list), max_size=12))
    inserts = draw(st.lists(st.sampled_from([[], [" "], ["\t\t"]]), max_size=3))
    if draw(st.integers(0, 2)) == 0:
        inserts.append(draw(st.lists(fields[1], min_size=1, max_size=7)
                            .filter(lambda row: len(row) != len(fields))))
    for row in inserts:
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def cov_rows():
    return csv_rows(COV_FIELDS)


def _csv_text(rows, header=COVARIATES_HEADER):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _loaded(load, text):
    try:
        return load(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(cov_rows())
@example([["1", "a", "b", "CINC-ratio", " 0.5"], [" 1", "a ", "\tb", "CINC-ratio", "0.5"]])
@example([["1", "a", "b", "CINC-ratio", "x"], ["1", "a"]])
@example([["1", "1", "a", "1", "0.5"], ["2", "a", "1", "1", "1"]])
@example([[" 01 ", " a,b ", "1", " 1 ", "-0.0"], [], ["2", "1", "a,b", "1", "\t1e-300 "]])
def test_load_covariates_matches_its_loop_oracle(rows):
    """Same entries (items, sorted-key order and value bits) or the same
    error message as the row-by-row loop."""
    text = _csv_text(rows)
    got = _loaded(lambda t: load_covariates(io.StringIO(t), extra_names=("1",)), text)
    want = _loaded(lambda t: load_covariates_oracle(t, extra_names=("1",)), text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, CovariateTable)
    assert list(got.entries) == list(want.entries)
    assert [v.hex() for v in got.entries.values()] == [v.hex() for v in want.entries.values()]
    assert all(type(v) is float for v in got.entries.values())


def test_load_covariates_matches_its_loop_oracle_on_a_synthetic_world(tmp_path):
    panel, table, _ = generate_synthetic(
        SyntheticSpec(n_nodes=12, periods=3, time_varying_covariates=True, seed=4)
    )
    with open(save_synthetic(panel, table, tmp_path)["covariates"]) as fh:
        text = fh.read()
    got, want = load_covariates(io.StringIO(text)), load_covariates_oracle(text)
    assert len(got.entries) == len(table.entries) > 1000
    assert list(got.entries.items()) == list(want.entries.items())
    assert [v.hex() for v in got.entries.values()] == [v.hex() for v in want.entries.values()]


# ------------------------------------------------------- reading in blocks
#
# The loaders read `CHUNK_ROWS` rows at a time; these inputs put their
# errors at row positions derived from it, so they land in a later block,
# right after a block boundary or in the last, short block.

@pytest.fixture(scope="module")
def world_covariates(tmp_path_factory):
    """A saved world's covariate file, more than five blocks long: its path
    and its data lines."""
    panel, table, _ = generate_synthetic(SyntheticSpec(
        n_nodes=30, periods=3, covariate_names=CANONICAL_COVARIATES,
        time_varying_covariates=True, seed=5,
    ))
    path = save_synthetic(panel, table, tmp_path_factory.mktemp("world"))["covariates"]
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()[1:]
    assert len(lines) == 3 * 30 * 29 * 9 > 5 * CHUNK_ROWS
    return path, lines


def _edited(lines, edits, header=",".join(COVARIATES_HEADER)):
    """The CSV text of data ``lines`` with the line at each row of ``edits``
    replaced by the lines ``edits[row](line)`` returns."""
    out = [header]
    for row, line in enumerate(lines):
        out += edits[row](line) if row in edits else [line]
    return "\n".join(out) + "\n"


def _field(k, text):
    """An edit that sets field ``k`` of a line to ``text``."""
    def edit(line):
        fields = line.split(",")
        fields[k] = text
        return [",".join(fields)]
    return edit


def _last_block(lines):
    return len(lines) // CHUNK_ROWS * CHUNK_ROWS


C = CHUNK_ROWS  # rows per block
# each case gives, from the file's data lines, the edits to make to them
CHUNK_CASES = {
    "clean": lambda lines: {},
    # every line after the blank one moves down, the bad value's too
    "blank-line-first-block": lambda lines: {10: lambda line: ["", line], C + 5: _field(4, "x")},
    "blank-line-at-boundary": lambda lines: {C - 1: lambda line: [line, " "],
                                             C + 1: _field(4, "inf")},
    # the second occurrence comes two blocks later, the bad value after it
    "duplicate-in-later-block": lambda lines: {2 * C + 7: lambda line: [lines[3]],
                                               2 * C + 9: _field(4, "x")},
    "duplicate-before-boundary": lambda lines: {C - 1: lambda line: [lines[0]],
                                                C: _field(4, "x")},
    "bad-value-on-duplicate": lambda lines: {C + 2: lambda line: _field(4, "nan")(lines[C])},
    # a duplicate after the bad year does not count
    "bad-year-after-boundary": lambda lines: {C: _field(0, "soon"),
                                              C + 3: lambda line: [lines[1]]},
    "bad-year-ends-block": lambda lines: {C - 1: _field(0, "1.5")},
    "short-row-last-block": lambda lines: {
        _last_block(lines) + 11: lambda line: [line.rsplit(",", 2)[0]]},
    # a field over the csv module's size limit is reported at its line,
    # after a duplicate on an earlier line and before a later bad value
    "big-field-after-duplicate": lambda lines: {C - 1: lambda line: [lines[0]],
                                                C + 4: _field(4, "x" * 140_000)},
    "big-field-before-bad-value": lambda lines: {C + 2: _field(2, "x" * 140_000),
                                                 C + 5: _field(4, "nan")},
    "short-row-after-duplicate": lambda lines: {
        _last_block(lines) - 2: lambda line: [lines[_last_block(lines) - 1]],
        _last_block(lines): lambda line: ["1,n00"]},
}


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_load_covariates_matches_its_loop_oracle_across_blocks(world_covariates, case):
    """Blank lines, duplicates, bad years and values and short rows at block
    boundaries give the row-by-row loop's exact error; the clean file gives
    its entries in order and in bits."""
    _, lines = world_covariates
    text = _edited(lines, CHUNK_CASES[case](lines))
    got = _loaded(lambda t: load_covariates(io.StringIO(t)), text)
    want = _loaded(load_covariates_oracle, text)
    if case != "clean":
        assert isinstance(want, tuple) and got == want
        return
    assert list(got.entries) == list(want.entries)
    assert [v.hex() for v in got.entries.values()] == [v.hex() for v in want.entries.values()]


def test_a_bad_value_comes_before_a_csv_error_in_its_block():
    # csv.reader raises on a bare carriage return inside a line; the rows
    # it read before that line are still checked first, and the csv.Error
    # is then a ParseError naming its line
    rows = "1,a,b,CINC-ratio,1\n1,a,c,CINC-ratio,x\n1,a\rb,c,CINC-ratio,1\n"
    with pytest.raises(ParseError) as info:
        load_covariates(io.StringIO("year,i,j,name,value\n" + rows))
    assert str(info.value) == "covariates: line 3: value 'x' is not a number"
    with pytest.raises(ParseError) as info:
        load_covariates(io.StringIO("year,i,j,name,value\n" + rows.replace(",x", ",2")))
    assert str(info.value).startswith(
        "covariates: line 4: new-line character seen in unquoted field"
    )


def test_load_covariates_peak_memory_stays_near_its_code_arrays(world_covariates):
    # one block of fields is live at a time, so the peak is the code
    # arrays, their duplicate check and one block: about 90 B a row on this
    # 23,490-row file (83 B with the earlier row-at-a-time loop), where a
    # loader holding every row's fields peaks near 480 B a row
    path, lines = world_covariates
    load_covariates(path)
    tracemalloc.start()
    try:
        load_covariates(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(lines) < 200


def test_loading_closes_its_file_when_a_later_block_is_bad(tmp_path, world_covariates):
    _, lines = world_covariates
    texts = {
        "duplicate": _edited(lines, {CHUNK_ROWS + 3: lambda line: [lines[0]]}),
        "value": _edited(lines, {2 * CHUNK_ROWS + 3: _field(4, "x")}),
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, text in texts.items():
            (tmp_path / f"{name}.csv").write_text(text)
            with pytest.raises(ParseError, match="duplicate|not a number"):
                load_covariates(tmp_path / f"{name}.csv")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    for text in texts.values():
        stream = io.StringIO(text)
        with pytest.raises(ParseError):
            load_covariates(stream)
        assert not stream.closed


# a blank id after stripping is an error; "1" is a node and a year at once
EVENT_FIELDS = (
    _padded(["a", "b", "c", "1", "a,b"], ["", " "]),
    _padded(["a", "b", "c", "1", "a,b"], [""]),
    _padded(["1", "2", "3", "02"], ["x", "1.5", ""]),
)
REGISTRY_FIELDS = (
    _padded(["a", "b", "c", "1", "a,b"], []),
    _padded(["0", "1", "2"], ["x", ""]),
    _padded(["2", "3", "4"], ["2.0"]),
)


@settings(max_examples=200)
@given(csv_rows(EVENT_FIELDS), st.none() | csv_rows(REGISTRY_FIELDS))
@example([[" a ", "\tb", " 1 "], [], ["b", "a", "2"]], [["a", "0", "4"], [" "], [" b", "1", "3"]])
@example([["a", "b", "1"]], [["a", "0", "4"], ["b", "1", "3"], [" a ", "1", "2"]])
@example([["a", "b", "x"], ["a", "b"]], None)
def test_load_events_matches_its_loop_oracle(events, registry):
    """The same panel or the same error message as the row-by-row loop."""
    events_text = _csv_text(events, EVENTS_HEADER)
    registry_text = None if registry is None else _csv_text(registry, REGISTRY_HEADER)
    texts = events_text, registry_text
    got = _loaded(lambda t: load_events(*(text and io.StringIO(text) for text in t)), texts)
    assert got == _loaded(lambda t: load_events_oracle(*t), texts)


# (events edits, registry edits) per case, on files over two blocks long
EVENT_CASES = {
    "clean": ({}, {}),
    "blank-then-bad-year": ({3: lambda line: [" ", line], C: _field(2, "soon")}, {}),
    "empty-id-last-block": ({2 * C + 1: _field(1, " ")}, {}),
    "short-row-after-boundary": ({C: lambda line: ["n00,n01"]}, {}),
    "registry-duplicate-later-block": ({}, {C + 4: lambda line: ["n00000,1,9"]}),
    "registry-bad-year-after-blank": ({}, {1: lambda line: [line, ""], C: _field(2, "x")}),
}


@pytest.mark.parametrize("case", list(EVENT_CASES))
def test_load_events_matches_its_loop_oracle_across_blocks(case):
    nodes = [f"n{k:05d}" for k in range(2 * C + 50)]
    events = [f"{nodes[k]},{nodes[k + 1]},{1 + k % 9}" for k in range(len(nodes) - 1)]
    registry = [f"{node},1,9" for node in nodes]
    event_edits, registry_edits = EVENT_CASES[case]
    events_text = _edited(events, event_edits, ",".join(EVENTS_HEADER))
    registry_text = _edited(registry, registry_edits, ",".join(REGISTRY_HEADER))
    texts = events_text, registry_text
    got = _loaded(lambda t: load_events(*map(io.StringIO, t)), texts)
    want = _loaded(lambda t: load_events_oracle(*t), texts)
    assert got == want
    assert isinstance(want, EventPanel) == (case == "clean")


def test_covariate_undeclared_name():
    with pytest.raises(ValidationError, match="undeclared"):
        CovariateTable.from_entries({(1990, "a", "b", "coolness"): 1.0})


def test_covariate_extra_names_accepted():
    table = CovariateTable.from_entries(
        {(1990, "a", "b", "coolness"): 0.7},
        extra_names=("coolness",),
    )
    assert table.entries.get((1990, "a", "b", "coolness")) == 0.7


def test_indicator_covariate_must_be_binary():
    with pytest.raises(ValidationError, match="non-binary"):
        CovariateTable.from_entries({(1990, "a", "b", "contiguity"): 0.5})


def test_indicator_extras_enforced():
    with pytest.raises(ValidationError, match="non-binary"):
        CovariateTable.from_entries(
            {(1990, "a", "b", "rivalry"): 2.0},
            extra_names=("rivalry",),
            indicator_extras=frozenset({"rivalry"}),
        )


def test_names_present_declaration_order():
    table = CovariateTable.from_entries(
        {
            (1, "a", "b", "contiguity"): 1.0,
            (1, "a", "b", "joint-democracy"): 0.0,
        }
    )
    assert table.names == ("joint-democracy", "contiguity")


def test_non_finite_covariate_value_is_storable():
    # the table itself stores any float; the design layer rejects non-finite
    table = CovariateTable.from_entries({(1, "a", "b", "trade-dependence"): float("inf")})
    assert np.isinf(table.entries.get((1, "a", "b", "trade-dependence")))
