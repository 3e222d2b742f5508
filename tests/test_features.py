import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyadcast import ENDOGENOUS_FEATURE_NAMES, feature_block
from helpers import (
    adamic_adar,
    common_combatants,
    flow,
    jaccard,
    make_net,
    memory,
    stub_bundle,
)

NETWORK_COLUMNS = ENDOGENOUS_FEATURE_NAMES[:5]


def stats(edges, dyads, nodes=(), exclude_focal_flow=False):
    """The network columns of feature_block by name, one value per dyad."""
    net = make_net(edges, nodes)
    labels = {n: 0 for n in net.nodes}
    origin = {n: (0.0, 0.0) for n in net.nodes}
    X = feature_block(net, dyads, stub_bundle(labels, {d: 0.0 for d in dyads}, origin),
                      exclude_focal_flow)
    return {name: X[:, k].tolist() for k, name in enumerate(NETWORK_COLUMNS)}


def test_memory_examples():
    # a 0/1 indicator of the directed edge, not an event count
    col = stats([("a", "b")], [("a", "b"), ("b", "a")])["memory"]
    assert col == [1.0, 0.0]  # direction matters


def test_flow_worked_example():
    # sender with out-degree 2, receiver with in-degree 2
    col = stats([("a", "b"), ("a", "c"), ("d", "b")], [("a", "b"), ("b", "a")])["flow"]
    assert col == [4.0, 0.0]


def test_flow_single_edge():
    assert stats([("a", "b")], [("a", "b")])["flow"] == [1.0]
    assert stats([("a", "b")], [("a", "b")], exclude_focal_flow=True)["flow"] == [0.0]


def test_flow_exclude_focal_only_when_present():
    # no a->b edge, so the flag changes nothing
    edges, nodes = [("a", "c"), ("d", "b")], ["a", "b"]
    assert stats(edges, [("a", "b")], nodes)["flow"] == [1.0]
    assert stats(edges, [("a", "b")], nodes, exclude_focal_flow=True)["flow"] == [1.0]


def test_common_combatants_examples():
    assert stats([("a", "c"), ("c", "b")], [("a", "b")])["common-combatants"] == [1.0]
    assert stats([("a", "c"), ("b", "d")], [("a", "b")])["common-combatants"] == [0.0]
    # dyad members themselves never count as shared neighbors
    edges = [("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "b")]
    assert stats(edges, [("a", "b")])["common-combatants"] == [2.0]


def test_adamic_adar_examples():
    # one shared neighbor of undirected degree 2
    (aa,) = stats([("a", "c"), ("c", "b")], [("a", "b")])["adamic-adar"]
    assert aa == pytest.approx(1.0 / math.log(2.0), abs=1e-15)
    # shared neighbors of degrees 2 and 3
    edges = [("a", "c"), ("c", "b"), ("a", "d"), ("d", "b"), ("d", "e")]
    (aa,) = stats(edges, [("a", "b")])["adamic-adar"]
    assert aa == pytest.approx(1.0 / math.log(2.0) + 1.0 / math.log(3.0), abs=1e-15)
    assert stats([("a", "c"), ("b", "d")], [("a", "b")])["adamic-adar"] == [0.0]


def test_jaccard_worked_example():
    # n(a)\{b} = {c,d}, n(b)\{a} = {c} -> 1/2
    assert stats([("a", "c"), ("a", "d"), ("c", "b")], [("a", "b")])["jaccard"] == [0.5]


def test_jaccard_empty_union_is_zero():
    assert stats([], [("a", "b")], nodes=["a", "b"])["jaccard"] == [0.0]
    # neighbors that are only each other also strip to empty
    assert stats([("a", "b")], [("a", "b")])["jaccard"] == [0.0]


def test_jaccard_identical_sets():
    assert stats([("a", "c"), ("b", "c")], [("a", "b")])["jaccard"] == [1.0]


@pytest.mark.parametrize("fn", [memory, flow, common_combatants, adamic_adar, jaccard])
def test_self_pair_rejected(fn):
    """Every statistic is undefined on a self-pair: its oracle and
    feature_block both refuse one, wherever it sits in the dyad list."""
    net = make_net([("a", "b")])
    with pytest.raises(ValueError):
        fn(net, "a", "a")
    bundle = stub_bundle({"a": 0, "b": 0}, {("a", "b"): 0.0}, {"a": (0.0,), "b": (0.0,)})
    with pytest.raises(ValueError):
        feature_block(net, [("a", "b"), ("a", "a")], bundle)


# --------------------------------------------------------------- block

def test_feature_block_column_order_and_values():
    net = make_net([("a", "b"), ("a", "c"), ("d", "b")])
    dyads = [("a", "b"), ("b", "a")]
    bundle = stub_bundle(
        labels={"a": 0, "b": 0, "c": 1, "d": 1},
        probs={("a", "b"): 0.25, ("b", "a"): 0.125},
        positions={"a": (0.0, 0.0), "b": (1.2, -1.6), "c": (3.0, 0.0), "d": (0.0, 1.0)},
    )
    X = feature_block(net, dyads, bundle)
    assert X.shape == (2, len(ENDOGENOUS_FEATURE_NAMES))
    assert ENDOGENOUS_FEATURE_NAMES == (
        "memory", "flow", "common-combatants", "adamic-adar",
        "jaccard", "common-community", "mmsbm-prob", "latent-distance",
    )
    a_b = dict(zip(ENDOGENOUS_FEATURE_NAMES, X[0]))
    assert a_b["memory"] == 1.0
    assert a_b["flow"] == 4.0
    assert a_b["common-combatants"] == 0.0
    assert a_b["adamic-adar"] == 0.0
    assert a_b["jaccard"] == 0.0
    assert a_b["common-community"] == 1.0
    assert a_b["mmsbm-prob"] == 0.25
    assert a_b["latent-distance"] == 2.0
    b_a = dict(zip(ENDOGENOUS_FEATURE_NAMES, X[1]))
    assert b_a["memory"] == 0.0
    assert b_a["flow"] == 0.0
    assert b_a["mmsbm-prob"] == 0.125


def test_latent_columns_follow_the_node_index():
    """common-community and latent-distance are read per node from the
    fits, whatever order the dyads come in; a bundle fitted on other nodes
    is refused, whether it lacks a node or names one differently."""
    net = make_net([("a", "b"), ("c", "d")])
    dyads = [("d", "a"), ("a", "c"), ("c", "d"), ("b", "a")]
    positions = {"a": (0.0, 0.0), "b": (3.0, 4.0), "c": (6.0, 0.0), "d": (6.0, 8.0)}
    bundle = stub_bundle(
        labels={"a": 0, "b": 0, "c": 1, "d": 1},
        probs={d: 0.5 for d in dyads},
        positions=positions,
    )
    X = feature_block(net, dyads, bundle)
    assert X[:, 5].tolist() == [0.0, 0.0, 1.0, 1.0]
    assert X[:, 7].tolist() == [10.0, 6.0, 8.0, 5.0]
    labels = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    del positions["d"]
    with pytest.raises(ValueError, match="node set"):
        feature_block(net, dyads, stub_bundle(labels, {}, positions))
    positions["e"] = (6.0, 8.0)
    with pytest.raises(ValueError, match="node set"):
        feature_block(net, dyads, stub_bundle(labels, {}, positions))


def test_feature_block_exclude_focal_flow():
    """The flag removes the focal edge from both degree counts and drops
    no column: only flow changes."""
    net = make_net([("a", "b"), ("a", "c"), ("d", "b")])
    dyads = [("a", "b"), ("a", "c"), ("c", "b")]
    bundle = stub_bundle(
        labels={"a": 0, "b": 0, "c": 1, "d": 1},
        probs={d: 0.5 for d in dyads},
        positions={"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0), "d": (1.0, 1.0)},
    )
    X0 = feature_block(net, dyads, bundle)
    X1 = feature_block(net, dyads, bundle, exclude_focal_flow=True)
    assert X0.shape == X1.shape == (3, len(ENDOGENOUS_FEATURE_NAMES))
    # a->b: (2-1) x (2-1); a->c: (2-1) x (1-1); c->b has no focal edge
    assert X0[:, 1].tolist() == [4.0, 2.0, 0.0]
    assert X1[:, 1].tolist() == [1.0, 0.0, 0.0]
    assert np.array_equal(np.delete(X0, 1, axis=1), np.delete(X1, 1, axis=1))


def test_feature_block_empty_network():
    net = make_net([], nodes=["a", "b"])
    bundle = stub_bundle(
        labels={"a": 0, "b": 1},
        probs={("a", "b"): 0.0},
        positions={"a": (0.0, 0.0), "b": (0.0, 0.0)},
    )
    X = feature_block(net, [("a", "b")], bundle)
    assert np.array_equal(X[0, :5], np.zeros(5))


# ----------------------------------------------------------- properties

def random_edges(draw, nodes="abcdef", max_size=14):
    pairs = [(i, j) for i in nodes for j in nodes if i != j]
    return draw(st.sets(st.sampled_from(pairs), max_size=max_size))


def all_dyads(nodes):
    return [(i, j) for i in nodes for j in nodes if i != j]


@given(st.data())
def test_matches_oracles(data):
    """Each network column equals its per-dyad oracle: exactly for the
    counts and ratios, within 1e-12 for the Adamic-Adar sum, whose
    summation order differs."""
    nodes = "abcdefghi"
    edges = random_edges(data.draw, nodes, max_size=30)
    exclude = data.draw(st.booleans())
    dyads = all_dyads(nodes)
    got = stats(edges, dyads, nodes, exclude_focal_flow=exclude)
    net = make_net(edges, nodes)
    assert got["memory"] == [memory(net, i, j) for i, j in dyads]
    assert got["flow"] == [flow(net, i, j, exclude_focal=exclude) for i, j in dyads]
    assert got["common-combatants"] == [common_combatants(net, i, j) for i, j in dyads]
    assert got["jaccard"] == [jaccard(net, i, j) for i, j in dyads]
    expect = [adamic_adar(net, i, j) for i, j in dyads]
    assert np.max(np.abs(np.subtract(got["adamic-adar"], expect))) <= 1e-12


@given(st.data())
def test_relabel_equivariance(data):
    """Permuting node names permutes the statistics with them."""
    nodes = list("abcdef")
    edges = random_edges(data.draw)
    perm = data.draw(st.permutations(nodes))
    mapping = dict(zip(nodes, perm))
    dyads = all_dyads(nodes)
    before = stats(edges, dyads, nodes)
    after = stats(
        [(mapping[i], mapping[j]) for i, j in edges],
        [(mapping[i], mapping[j]) for i, j in dyads],
        perm,
    )
    for name in ("memory", "flow", "common-combatants"):
        assert before[name] == after[name]
    for name in ("adamic-adar", "jaccard"):
        assert np.allclose(before[name], after[name], rtol=0.0, atol=1e-12)


@given(st.data())
def test_structural_invariants(data):
    nodes = "abcdef"
    dyads = all_dyads(nodes)
    s = stats(random_edges(data.draw), dyads, nodes)
    by_dyad = {d: {name: s[name][k] for name in NETWORK_COLUMNS} for k, d in enumerate(dyads)}
    for (i, j), row in by_dyad.items():
        assert 0.0 <= row["jaccard"] <= 1.0
        # both count the same shared-neighbor set
        assert (row["adamic-adar"] == 0.0) == (row["common-combatants"] == 0.0)
        # an observed focal edge puts at least 1x1 into the product
        assert row["flow"] >= row["memory"]
        assert row["common-combatants"] == by_dyad[(j, i)]["common-combatants"]
