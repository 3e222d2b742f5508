import gc
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyadcast import (
    CovariateTable,
    EventPanel,
    ParseError,
    ValidationError,
    aggregate_window,
    eligible_dyads,
    load_covariates,
    load_events,
)
from helpers import make_panel


def test_events_canonical_order():
    a = make_panel([("b", "a", 2), ("a", "b", 1), ("a", "c", 1)])
    b = make_panel([("a", "c", 1), ("b", "a", 2), ("a", "b", 1)])
    assert a.events == b.events == (("a", "b", 1), ("a", "c", 1), ("b", "a", 2))
    assert a == b


def test_duplicate_events_retained():
    panel = make_panel([("a", "b", 1), ("a", "b", 1)])
    assert len(panel.events) == 2
    # aggregation collapses the duplicates to one binary edge
    assert aggregate_window(panel, 1, 1).edges == frozenset({("a", "b")})


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
    panel = make_panel([("a", "b", 1), ("b", "a", 2), ("a", "b", 2)])
    assert panel.events_at(2) == frozenset({("b", "a"), ("a", "b")})
    assert panel.events_at(9) == frozenset()


def test_aggregate_window_examples():
    panel = make_panel([("a", "b", 1990), ("a", "b", 1992)])
    assert aggregate_window(panel, 1988, 1992).edges == frozenset({("a", "b")})
    assert aggregate_window(panel, 1991, 1992).edges == frozenset({("a", "b")})
    assert aggregate_window(panel, 1991, 1991).edges == frozenset()


def test_aggregate_window_carries_isolates():
    panel = EventPanel(
        events=(("a", "b", 2),),
        registry={"a": (1, 5), "b": (1, 5), "c": (1, 3), "d": (4, 5)},
    )
    net = aggregate_window(panel, 1, 3)
    assert net.nodes == frozenset({"a", "b", "c"})  # d's span starts later
    net2 = aggregate_window(panel, 4, 5)
    assert net2.nodes == frozenset({"a", "b", "d"})
    assert net2.edges == frozenset()


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
        expected |= set(panel.events_at(p))
    assert aggregate_window(panel, start, end).edges == frozenset(expected)


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
    dyads = eligible_dyads(panel, 3)
    assert len(dyads) == 6
    assert dyads == sorted(dyads)
    assert ("a", "b") in dyads and ("b", "a") in dyads


def test_eligible_dyads_excludes_entrants():
    panel = EventPanel(events=(), registry={"a": (1, 5), "b": (1, 5), "c": (3, 5)})
    assert len(eligible_dyads(panel, 3)) == 2  # c enters at 3, inactive at 2
    assert len(eligible_dyads(panel, 4)) == 6


def test_eligible_dyads_single_node():
    panel = EventPanel(events=(), registry={"a": (1, 5)})
    assert eligible_dyads(panel, 3) == []


def test_eligible_dyads_out_of_range():
    panel = EventPanel(events=(), registry={"a": (1, 5), "b": (1, 5)})
    with pytest.raises(ValueError):
        eligible_dyads(panel, 1)  # period 0 has no data
    with pytest.raises(ValueError):
        eligible_dyads(panel, 7)


@given(st.data())
def test_eligibility_monotone_in_registry(data):
    """Removing a node from the registry never adds dyads."""
    nodes = data.draw(st.sets(st.sampled_from("abcde"), min_size=2, max_size=5))
    registry = {n: (1, 5) for n in nodes}
    panel = EventPanel(events=(), registry=registry)
    full = set(eligible_dyads(panel, 3))
    drop = data.draw(st.sampled_from(sorted(nodes)))
    smaller = EventPanel(events=(), registry={n: s for n, s in registry.items() if n != drop})
    if len(smaller.registry) >= 1:
        assert set(eligible_dyads(smaller, 3)) <= full


# ------------------------------------------------------------- CSV input

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


COV_CSV = (
    "year,i,j,name,value\n"
    "1990,a,b,trade-dependence,0.25\n"
    "1990,a,b,joint-democracy,1\n"
)


def test_load_covariates():
    table = load_covariates(io.StringIO(COV_CSV))
    assert table.value(1990, "a", "b", "trade-dependence") == 0.25
    assert table.value(1990, "a", "b", "joint-democracy") == 1.0
    assert table.value(1990, "b", "a", "trade-dependence") is None


def test_load_covariates_duplicate_key():
    dup = COV_CSV + "1990,a,b,trade-dependence,0.5\n"
    with pytest.raises(ParseError, match="duplicate"):
        load_covariates(io.StringIO(dup))


def test_load_covariates_bad_value():
    bad = "year,i,j,name,value\n1990,a,b,trade-dependence,much\n"
    with pytest.raises(ParseError, match="line 2"):
        load_covariates(io.StringIO(bad))


def test_covariate_undeclared_name():
    with pytest.raises(ValidationError, match="undeclared"):
        CovariateTable(entries={(1990, "a", "b", "coolness"): 1.0})


def test_covariate_extra_names_accepted():
    table = CovariateTable(
        entries={(1990, "a", "b", "coolness"): 0.7},
        extra_names=("coolness",),
    )
    assert table.value(1990, "a", "b", "coolness") == 0.7


def test_indicator_covariate_must_be_binary():
    with pytest.raises(ValidationError, match="non-binary"):
        CovariateTable(entries={(1990, "a", "b", "contiguity"): 0.5})


def test_indicator_extras_enforced():
    with pytest.raises(ValidationError, match="non-binary"):
        CovariateTable(
            entries={(1990, "a", "b", "rivalry"): 2.0},
            extra_names=("rivalry",),
            indicator_extras=frozenset({"rivalry"}),
        )


def test_names_present_declaration_order():
    table = CovariateTable(
        entries={
            (1, "a", "b", "contiguity"): 1.0,
            (1, "a", "b", "joint-democracy"): 0.0,
        }
    )
    assert table.names_present() == ["joint-democracy", "contiguity"]


def test_non_finite_covariate_value_is_storable():
    # the table itself stores any float; the design layer rejects non-finite
    table = CovariateTable(entries={(1, "a", "b", "trade-dependence"): float("inf")})
    assert np.isinf(table.value(1, "a", "b", "trade-dependence"))
