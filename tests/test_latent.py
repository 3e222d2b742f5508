import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dyadcast import (
    ENDOGENOUS_FEATURE_NAMES,
    BundleCache,
    CommunityPartition,
    EventPanel,
    FitError,
    LatentBundle,
    LatentConfig,
    LatentSpaceFit,
    MMSBMFit,
    aggregate_window,
    feature_block,
    fit_bundle,
    fit_latent_space,
    fit_mmsbm,
    modularity,
    walktrap,
)
import dyadcast
import helpers
from dyadcast import latent
from helpers import (
    as_dyads,
    best_modularity_partition,
    edge_set,
    fit_latent_space_oracle,
    fit_mmsbm_oracle,
    make_net,
    modularity_dict_oracle,
    partition_as_groups,
    spearman,
    stub_bundle,
    tiny_latent_config,
    walktrap_oracle,
)


def two_cliques_bridge():
    edges = [("x0", "x1"), ("x0", "x2"), ("x1", "x2"),
             ("y0", "y1"), ("y0", "y2"), ("y1", "y2"),
             ("x0", "y0")]
    return make_net(edges)


def communities(net, part):
    """The partition as a set of frozensets of node names."""
    return partition_as_groups(dict(zip(net.nodes, part.labels)))


def column(net, dyads, bundle, name):
    """One column of feature_block, the fits' positional reads."""
    X = feature_block(net, as_dyads(dyads), bundle)
    return X[:, ENDOGENOUS_FEATURE_NAMES.index(name)].tolist()


def bundle_ab(**fit):
    """A bundle on nodes a and b holding the given hand-built fit."""
    stub = stub_bundle({"a": 0, "b": 1}, {}, {"a": (0.0, 0.0), "b": (0.0, 0.0)})
    return dataclasses.replace(stub, **fit)


def distance(fit, k, m):
    """Latent distance between the k-th and m-th nodes."""
    return float(np.sqrt(np.sum((fit.positions[k] - fit.positions[m]) ** 2)))


# --------------------------------------------------------------- walktrap

def test_walktrap_two_cliques():
    net = two_cliques_bridge()
    assert communities(net, walktrap(net)) == {
        frozenset({"x0", "x1", "x2"}), frozenset({"y0", "y1", "y2"})
    }


def test_walktrap_matches_exhaustive_oracle():
    net = two_cliques_bridge()
    part = walktrap(net)
    n2i = {n: k for k, n in enumerate(sorted(net.nodes))}
    und = sorted(
        {(min(n2i[i], n2i[j]), max(n2i[i], n2i[j])) for i, j in edge_set(net)}
    )
    best, best_q, unique = best_modularity_partition(len(net.nodes), und)
    assert unique
    assert partition_as_groups(dict(enumerate(part.labels))) == best
    assert part.modularity == pytest.approx(best_q, abs=1e-12)


def test_walktrap_complete_graph_single_community():
    nodes = ["a", "b", "c", "d"]
    edges = [(i, j) for i in nodes for j in nodes if i < j]
    part = walktrap(make_net(edges))
    assert part.labels == (0, 0, 0, 0)


def test_walktrap_disconnected_edges():
    part = walktrap(make_net([("a", "b"), ("c", "d")]))
    assert part.labels == (0, 0, 1, 1)


def test_walktrap_isolates_stay_singletons():
    net = make_net([("a", "b"), ("a", "c"), ("b", "c")], nodes=["a", "b", "c", "z"])
    part = walktrap(net)
    assert part.labels == (0, 0, 0, 1)


def test_walktrap_reported_modularity_consistent():
    for net in (two_cliques_bridge(), make_net([("a", "b"), ("c", "d"), ("b", "c")])):
        part = walktrap(net)
        nodes = sorted(net.nodes)
        n2i = {n: k for k, n in enumerate(nodes)}
        und = {(min(n2i[i], n2i[j]), max(n2i[i], n2i[j])) for i, j in edge_set(net)}
        assert abs(part.modularity - modularity(nodes, und, part.labels)) <= 1e-10


def test_walktrap_no_edges_all_singletons():
    part = walktrap(make_net([], nodes=["a", "b", "c"]))
    assert part.labels == (0, 1, 2)
    assert part.modularity == 0.0


def test_walktrap_relabel_invariant_grouping():
    # same shape, shuffled names: grouping structure must match
    ren = {"x0": "m", "x1": "q", "x2": "b", "y0": "a", "y1": "z", "y2": "k"}
    net1 = two_cliques_bridge()
    net2 = make_net([(ren[i], ren[j]) for i, j in edge_set(net1)])
    renamed = {frozenset(ren[n] for n in g) for g in communities(net1, walktrap(net1))}
    assert communities(net2, walktrap(net2)) == renamed


def test_walktrap_merge_count():
    part = walktrap(two_cliques_bridge())
    assert len(part.merges) == len(two_cliques_bridge().nodes) - 1  # connected


def test_walktrap_matches_replay_oracle_on_random_graphs():
    # stages scored inside the merge loop give the same cut, dendrogram and
    # modularity, bit for bit, as replaying the merges afterwards; the last
    # few graphs grow communities of a hundred nodes and more, whose edge
    # counts sum the largest blocks of the adjacency
    rng = np.random.default_rng(20061)
    graphs = [(int(rng.integers(1, 16)), None) for _ in range(1000)]
    graphs += [(int(rng.integers(16, 91)), None) for _ in range(200)]
    graphs += [(150, None), (190, None), (250, None)]
    # dense graphs, whose first distance step takes about 30 blocks of n edges
    graphs += [(120, 0.3)] * 3
    for n, density in graphs:
        nodes = [f"n{k:02d}" for k in range(n)]
        if density is None:
            density = rng.uniform(0.05, 0.8)
        edges = [(i, j) for i in nodes for j in nodes if i != j and rng.random() < density]
        net = make_net(edges, nodes=nodes)
        walk_length = int(rng.integers(1, 6))
        got, want = walktrap(net, walk_length), walktrap_oracle(net, walk_length)
        assert got.labels == want.labels
        assert got.merges == want.merges
        assert got.modularity == want.modularity


def test_walktrap_memory_stays_near_its_distance_matrix_on_a_dense_graph():
    # about 4,300 undirected edges on 120 nodes: the first distance step
    # works n edges at a time, so its temporaries stay the size of phat
    # instead of growing with (edges x nodes)
    rng = np.random.default_rng(1)
    nodes = [f"n{k:03d}" for k in range(120)]
    net = make_net([(i, j) for i in nodes for j in nodes if i != j and rng.random() < 0.3],
                   nodes=nodes)
    tracemalloc.start()
    try:
        walktrap(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    distance_matrix = (2 * len(nodes) - 1) ** 2 * 8
    assert peak < 8 * distance_matrix


def test_modularity_matches_dict_oracle_on_random_partitions():
    # bincount sums give the dict loop's value bit for bit, for edges given
    # as a list or a set and for community ids that are not 0..k-1
    rng = np.random.default_rng(2006)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.7), 1)
        und_edges = [tuple(e) for e in np.argwhere(upper).tolist()]
        k = int(rng.integers(1, n + 1))
        labels = {v: 7 * int(rng.integers(0, k)) - 3 for v in range(n)}
        nodes = list(range(n))
        want = modularity_dict_oracle(nodes, und_edges, labels)
        assert modularity(nodes, und_edges, labels) == want
        assert modularity(nodes, set(und_edges), labels) == want


def test_walktrap_validation():
    with pytest.raises(ValueError):
        walktrap(make_net([], nodes=[]))
    with pytest.raises(ValueError):
        walktrap(make_net([("a", "b")]), walk_length=0)


def test_common_community():
    # feature_block compares the partition's labels at the dyads' positions
    net = two_cliques_bridge()
    bundle = fit_bundle(net, tiny_latent_config(), master_seed=0)
    dyads = [("x0", "x1"), ("x0", "y0"), ("y2", "y1"), ("y1", "x2")]
    assert column(net, dyads, bundle, "common-community") == [1.0, 0.0, 1.0, 0.0]


def test_partition_json_round_trip():
    part = walktrap(two_cliques_bridge())
    back = CommunityPartition.from_json(json.loads(json.dumps(part.to_json())))
    assert back.labels == part.labels
    assert back.modularity == part.modularity
    assert back.merges == part.merges


# ----------------------------------------------------------------- mmsbm

def test_mmsbm_k1_predicts_density():
    net = make_net([("a", "b"), ("b", "c"), ("c", "a")], nodes=["a", "b", "c", "d"])
    fit = fit_mmsbm(net, K=1, restarts=1, seed=0)
    P = fit.pi @ fit.B @ fit.pi.T
    assert np.allclose(P[~np.eye(4, dtype=bool)], 3 / 12, rtol=0.0, atol=1e-5)


def test_mmsbm_validation():
    net = make_net([("a", "b")])
    with pytest.raises(ValueError):
        fit_mmsbm(net, K=0)
    with pytest.raises(ValueError):
        fit_mmsbm(net, K=5)  # only 2 nodes


def test_mmsbm_history_non_decreasing_and_simplex():
    rng = np.random.default_rng(7)
    nodes = [f"n{k}" for k in range(10)]
    edges = [(i, j) for i in nodes for j in nodes if i != j and rng.random() < 0.3]
    net, kw = make_net(edges, nodes), dict(K=3, restarts=2, max_iter=150, seed=1)
    fit = fit_mmsbm(net, **kw)
    ref, history = fit_mmsbm_oracle(net, **kw)
    # the fit is the oracle's bit for bit, so the oracle's history is the fit's
    assert np.array_equal(fit.pi, ref.pi) and np.array_equal(fit.B, ref.B)
    assert (fit.objective, fit.n_iter) == (ref.objective, ref.n_iter)
    hist = np.array(history)
    assert len(hist) == fit.n_iter and hist[-1] == fit.objective
    assert np.all(np.diff(hist) >= -1e-6)
    assert np.allclose(fit.pi.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(fit.pi >= 0)
    assert np.all((fit.B > 0) & (fit.B < 1))


def test_mmsbm_reports_how_it_stopped():
    net = make_net([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    capped = fit_mmsbm(net, K=2, restarts=1, max_iter=3, tol=0.0, seed=0)
    assert (capped.stop, capped.n_iter, capped.converged) == ("cap", 3, False)
    loose = fit_mmsbm(net, K=2, restarts=1, max_iter=3, tol=1.0, seed=0)
    assert (loose.stop, loose.n_iter, loose.converged) == ("tolerance", 1, True)


def test_mmsbm_planted_two_blocks():
    rng = np.random.default_rng(42)
    nodes = [f"n{k:02d}" for k in range(16)]
    block = {n: k % 2 for k, n in enumerate(nodes)}
    edges = [
        (i, j)
        for i in nodes
        for j in nodes
        if i != j and rng.random() < (0.75 if block[i] == block[j] else 0.05)
    ]
    fit = fit_mmsbm(make_net(edges, nodes), K=2, restarts=3, max_iter=200, seed=3)
    P = fit.pi @ fit.B @ fit.pi.T
    same = np.equal.outer(np.arange(16) % 2, np.arange(16) % 2)
    off = ~np.eye(16, dtype=bool)
    assert np.mean(P[same & off]) > np.mean(P[~same])


def test_mmsbm_deterministic():
    net = make_net([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    f1 = fit_mmsbm(net, K=2, restarts=2, seed=9)
    f2 = fit_mmsbm(net, K=2, restarts=2, seed=9)
    assert np.array_equal(f1.pi, f2.pi)
    assert np.array_equal(f1.B, f2.B)
    assert f1.objective == f2.objective


def test_mmsbm_prob_constructed():
    # feature_block reads pi[i] @ B @ pi[j] at the dyads' positions
    net = make_net([], nodes=["a", "b"])
    B = np.array([[0.9, 0.2], [0.3, 0.6]])
    fit = MMSBMFit(pi=np.eye(2), B=B, stop="tolerance", n_iter=0, objective=0.0)
    probs = column(net, [("a", "b"), ("b", "a")], bundle_ab(mmsbm=fit), "mmsbm-prob")
    assert probs == pytest.approx([0.2, 0.3], abs=1e-15)
    uniform = MMSBMFit(pi=np.full((2, 2), 0.5), B=B, stop="tolerance", n_iter=0, objective=0.0)
    (prob,) = column(net, [("a", "b")], bundle_ab(mmsbm=uniform), "mmsbm-prob")
    assert prob == pytest.approx(0.5, abs=1e-15)


def test_mmsbm_json_round_trip():
    net = make_net([("a", "b"), ("b", "c")])
    fit = fit_mmsbm(net, K=2, restarts=1, max_iter=50, seed=0)
    back = MMSBMFit.from_json(json.loads(json.dumps(fit.to_json())))
    assert np.array_equal(back.pi, fit.pi)
    assert np.array_equal(back.B, fit.B)
    assert (back.objective, back.stop, back.n_iter) == (fit.objective, fit.stop, fit.n_iter)


# ---------------------------------------------------------- latent space

def test_logaddexp_is_a_maximum_plus_a_term_shared_by_both_signs():
    """fit_latent_space computes numpy's logaddexp(0, s) for a pair's margin
    and its negation from one logaddexp(0, -|s|). A numpy that computes
    logaddexp otherwise fails here by name, not as a changed fit."""
    edges = np.array(
        [0.0, np.finfo(float).smallest_subnormal, 1e-310, 36.7, 709.0, 745.0, 1e308]
    )
    rng = np.random.default_rng(0)
    scales = [*np.logspace(-8, 2, 11), 800.0]
    s = np.concatenate([edges, *(rng.normal(0.0, scale, 20_000) for scale in scales)])
    s = np.concatenate((s, -s))
    split = np.maximum(s, 0.0) + np.logaddexp(0.0, -np.abs(s))
    assert np.array_equal(np.logaddexp(0.0, s).view(np.int64), split.view(np.int64))


def test_latent_distance_is_euclidean():
    # feature_block reads the positions at the dyads' positions
    fit = LatentSpaceFit(
        positions=np.array([[0.0, 0.0], [3.0, 4.0]]),
        alpha=0.0,
        stop="tolerance",
        n_iter=0,
        objective=0.0,
    )
    net = make_net([], nodes=["a", "b"])
    bundle = bundle_ab(latent=fit)
    assert column(net, [("a", "b"), ("b", "a")], bundle, "latent-distance") == [5.0, 5.0]


def test_latent_degenerate_empty_graph():
    fit = fit_latent_space(make_net([], nodes=["a", "b", "c"]), seed=0)
    assert fit.stop == "degenerate" and not fit.converged
    assert fit.alpha == -30.0
    assert np.array_equal(fit.positions, np.zeros((3, 2)))
    assert fit.n_iter == 0


def test_latent_degenerate_complete_graph():
    nodes = ["a", "b", "c"]
    edges = [(i, j) for i in nodes for j in nodes if i != j]
    fit = fit_latent_space(make_net(edges, nodes), seed=0)
    assert fit.stop == "degenerate"
    assert fit.alpha == 30.0


def test_latent_single_node():
    fit = fit_latent_space(make_net([], nodes=["a"]), seed=0)
    assert fit.stop == "degenerate"
    assert fit.alpha == 0.0


@pytest.mark.parametrize(
    "fit,keyword", [(fit_mmsbm, "restarts"), (fit_latent_space, "starts")]
)
def test_latent_fits_need_a_start(fit, keyword):
    """Zero starts would leave no fit to return."""
    with pytest.raises(ValueError, match=f"^{keyword} must be >= 1, got 0"):
        fit(make_net([("a", "b"), ("b", "c")]), **{keyword: 0})


def test_latent_empty_node_set():
    with pytest.raises(ValueError):
        fit_latent_space(make_net([], nodes=[]))


def test_latent_reciprocal_pair_sits_close():
    net = make_net([("a", "b"), ("b", "a")], nodes=["a", "b", "c"])
    fit = fit_latent_space(net, seed=0)
    assert fit.stop != "degenerate"
    assert distance(fit, 0, 1) < distance(fit, 0, 2)
    assert distance(fit, 0, 1) < distance(fit, 1, 2)


def test_latent_ascent_improves_on_start():
    net = make_net([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    init = fit_latent_space(net, starts=1, max_iter=0, seed=5)
    done = fit_latent_space(net, starts=1, max_iter=300, seed=5)
    assert done.objective > init.objective


def test_latent_line_geometry_recovered():
    n = 12
    nodes = [f"p{k:02d}" for k in range(n)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(n)
        if i != j and abs(i - j) <= 2
    ]
    fit = fit_latent_space(make_net(edges, nodes), seed=0)
    true_d, fit_d = [], []
    for i in range(n):
        for j in range(i + 1, n):
            true_d.append(abs(i - j))
            fit_d.append(distance(fit, i, j))
    assert spearman(true_d, fit_d) > 0.8


def test_latent_deterministic():
    net = make_net([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
    f1 = fit_latent_space(net, seed=4)
    f2 = fit_latent_space(net, seed=4)
    assert np.array_equal(f1.positions, f2.positions)
    assert f1.alpha == f2.alpha and f1.objective == f2.objective


def test_latent_json_round_trip():
    net = make_net([("a", "b"), ("b", "c")])
    fit = fit_latent_space(net, starts=1, max_iter=50, seed=0)
    back = LatentSpaceFit.from_json(json.loads(json.dumps(fit.to_json())))
    assert np.array_equal(back.positions, fit.positions)
    assert (back.alpha, back.objective, back.stop, back.n_iter) == (
        fit.alpha, fit.objective, fit.stop, fit.n_iter
    )


# ---------------------------------------------------------------- bundle

def test_fit_bundle_deterministic():
    net = two_cliques_bridge()
    cfg = tiny_latent_config()
    b1 = fit_bundle(net, cfg, master_seed=11)
    b2 = fit_bundle(net, cfg, master_seed=11)
    assert b1.to_json() == b2.to_json()
    assert b1.content_hash == net.content_hash()
    assert b1.nodes == net.nodes


def test_bundle_json_holds_the_nodes_once_and_no_history():
    text = json.dumps(fit_bundle(two_cliques_bridge(), tiny_latent_config(), 0).to_json())
    assert [text.count(f'"{n}"') for n in ("x0", "x1", "x2", "y0", "y1", "y2")] == [1] * 6
    assert "history" not in text


def test_bundle_json_round_trip():
    bundle = fit_bundle(two_cliques_bridge(), tiny_latent_config(), master_seed=0)
    back = LatentBundle.from_json(json.loads(json.dumps(bundle.to_json())))
    assert back.to_json() == bundle.to_json()


# One 40-node window under the default config, printed as bundle JSON.
BUNDLE_SCRIPT = """
import json, sys
import numpy as np
from dyadcast import LaggedNetwork, LatentConfig, fit_bundle
rng = np.random.default_rng(7)
A = (rng.random((40, 40)) < 0.15) * (1.0 - np.eye(40))
nodes = tuple(f"n{k:02d}" for k in range(40))
net = LaggedNetwork(window=(1, 1), nodes=nodes, adjacency=A)
sys.stdout.write(json.dumps(fit_bundle(net, LatentConfig(), 0).to_json()))
"""


def test_fit_bundle_does_not_depend_on_the_blas_thread_count():
    """The stacked MMSBM matmuls and every other fit give the same bundle
    text under one and two BLAS threads."""
    src = str(Path(dyadcast.__file__).resolve().parents[1])
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", BUNDLE_SCRIPT], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    assert texts[0] == texts[1] and '"mmsbm"' in texts[0]


def test_config_fingerprint_distinguishes():
    a = LatentConfig()
    b = LatentConfig(walk_length=5)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == LatentConfig().fingerprint()


def test_bundle_cache_memory_hit():
    cache = BundleCache(cache_dir=None)
    net = two_cliques_bridge()
    cfg = tiny_latent_config()
    b1 = cache.get(net, cfg, 0)
    assert cache.get(net, cfg, 0) is b1
    # same content under different window bounds also hits
    shifted = make_net(edge_set(net), net.nodes, window=(5, 9))
    assert cache.get(shifted, cfg, 0) is b1


def test_bundle_cache_disk_layer(tmp_path):
    net = two_cliques_bridge()
    cfg = tiny_latent_config()
    c1 = BundleCache(cache_dir=str(tmp_path))
    b1 = c1.get(net, cfg, 3)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    c2 = BundleCache(cache_dir=str(tmp_path))  # fresh memory, same disk
    b2 = c2.get(net, cfg, 3)
    assert b2.to_json() == b1.to_json()


def test_cache_identity_is_pinned(tmp_path):
    """The content hash, the default config's fingerprint and the bundle
    file name of one fixed window. They key the persistent cache and seed
    every latent fit, so a change here moves every cached bundle and fit."""
    panel = EventPanel(
        events=(("a", "b", 1), ("b", "c", 1), ("c", "a", 2), ("b", "a", 2)),
        registry={"a": (1, 2), "b": (1, 2), "c": (1, 2), "d": (1, 2)},  # d: an isolate
    )
    net = aggregate_window(panel, 1, 2)
    chash = "7b91f35ed11c66d5b5b248a83416a110d685aa3fbc3bb7fa07ea9fb5aa7cd2e5"
    assert net.content_hash() == chash
    assert LatentConfig().fingerprint() == "4039a100c06ad031"
    BundleCache(cache_dir=str(tmp_path)).get(net, LatentConfig(), 7)
    assert [p.name for p in tmp_path.iterdir()] == [f"v3-{chash}-4039a100c06ad031-7.json"]


def test_bundle_cache_concurrent_writers_of_one_key(tmp_path, monkeypatch):
    # a second cache writes the same bundle while the first is mid-write
    net = two_cliques_bridge()
    cfg = tiny_latent_config()
    second = BundleCache(cache_dir=str(tmp_path))
    real_dump = json.dump
    inner = []

    def dump_interleaved(obj, fh):
        if not inner:
            monkeypatch.setattr(json, "dump", real_dump)
            inner.append(second.get(net, cfg, 0))
        real_dump(obj, fh)

    monkeypatch.setattr(json, "dump", dump_interleaved)
    outer = BundleCache(cache_dir=str(tmp_path)).get(net, cfg, 0)
    assert outer.to_json() == inner[0].to_json()
    (path,) = tmp_path.iterdir()
    assert LatentBundle.from_json(json.loads(path.read_text())).to_json() == outer.to_json()


def test_bundle_cache_distinguishes_seed_and_config(tmp_path):
    net = two_cliques_bridge()
    cfg = tiny_latent_config()
    cache = BundleCache(cache_dir=str(tmp_path))
    cache.get(net, cfg, 0)
    cache.get(net, cfg, 1)
    cache.get(net, LatentConfig(), 0)
    assert len(list(tmp_path.iterdir())) == 3


def old_format(bundle):
    """The bundle's JSON as written before BUNDLE_VERSION: the nodes in each
    fit, the labels as a dict and MMSBM's objective history."""
    obj = bundle.to_json()
    nodes = obj.pop("nodes")
    obj["partition"]["labels"] = dict(zip(nodes, obj["partition"]["labels"]))
    obj["mmsbm"] = {"nodes": nodes, **obj["mmsbm"], "history": [obj["mmsbm"]["objective"]]}
    obj["latent"] = {"nodes": nodes, **obj["latent"]}
    return obj


def test_bundle_cache_ignores_a_pre_version_file(tmp_path):
    # a bundle at the unversioned name, in the old format, is neither read
    # nor changed; the fresh fit goes to the versioned name
    net, cfg = two_cliques_bridge(), tiny_latent_config()
    stem = f"{net.content_hash()}-{cfg.fingerprint()}-3"
    old = tmp_path / f"{stem}.json"
    old.write_text(json.dumps(old_format(fit_bundle(net, cfg, 3))))
    with pytest.raises(ValueError, match="labels must be a list"):  # unreadable now
        LatentBundle.from_json(json.loads(old.read_text()))
    before = (old.read_bytes(), old.stat().st_mtime_ns)
    bundle = BundleCache(cache_dir=str(tmp_path)).get(net, cfg, 3)
    assert (old.read_bytes(), old.stat().st_mtime_ns) == before
    new = tmp_path / f"v{latent.BUNDLE_VERSION}-{stem}.json"
    assert sorted(tmp_path.iterdir()) == sorted([old, new])
    assert json.loads(new.read_text()) == bundle.to_json() == fit_bundle(net, cfg, 3).to_json()


def test_bundle_cache_reads_no_bundle_of_another_version(tmp_path, monkeypatch):
    net, cfg = two_cliques_bridge(), tiny_latent_config()
    version = latent.BUNDLE_VERSION
    monkeypatch.setattr(latent, "BUNDLE_VERSION", version - 1)
    BundleCache(cache_dir=str(tmp_path)).get(net, cfg, 0)
    (stale,) = tmp_path.iterdir()
    obj = json.loads(stale.read_text())
    obj["latent"]["objective"] = 123.0  # as if an older optimizer had fitted it
    stale.write_text(json.dumps(obj))
    assert BundleCache(cache_dir=str(tmp_path)).get(net, cfg, 0).latent.objective == 123.0
    before = stale.read_bytes()
    monkeypatch.setattr(latent, "BUNDLE_VERSION", version)
    bundle = BundleCache(cache_dir=str(tmp_path)).get(net, cfg, 0)
    assert bundle.to_json() == fit_bundle(net, cfg, 0).to_json()
    assert stale.read_bytes() == before and len(list(tmp_path.iterdir())) == 2


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_bundle_cache_files_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        BundleCache(cache_dir=str(tmp_path)).get(two_cliques_bridge(), tiny_latent_config(), 0)
    finally:
        os.umask(previous)
    (path,) = tmp_path.iterdir()
    assert path.stat().st_mode & 0o777 == mode


def test_bundle_cache_failed_dump_leaves_no_temp_file(tmp_path, monkeypatch):
    def broken_dump(obj, fh):
        fh.write("{")
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(RuntimeError, match="disk full"):
        BundleCache(cache_dir=str(tmp_path)).get(two_cliques_bridge(), tiny_latent_config(), 0)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------- loop oracles (before descend)

def random_net(rng, n, max_density=0.7):
    """A random directed graph on n nodes, density itself drawn in
    (0, max_density)."""
    nodes = [f"v{k:02d}" for k in range(n)]
    density = rng.uniform(0.0, max_density)
    edges = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < density]
    return make_net(edges, nodes)


def test_latent_space_matches_loop_oracle_on_random_nets():
    # dims 8 and up keep numpy's pairwise reduce for the distances, so both
    # sides of that switch are drawn. From case 120 on, densities up to 0.98
    # make most pairs mutual, and every third net has 30 to 41 nodes, as in
    # the latent-wide benchmark: the fit's per-pair arrays then meet mutual,
    # one-way and empty pairs at that size.
    for case in range(150):
        rng = np.random.default_rng(case)
        if case < 120:
            net = random_net(rng, int(rng.integers(2, 16)))
        else:
            n = int(rng.integers(30, 42) if case % 3 == 0 else rng.integers(2, 16))
            net = random_net(rng, n, max_density=0.98)
        kw = dict(
            dim=int(rng.choice([1, 2, 3, 7, 8, 9])),
            tau=float(rng.choice([0.0, 0.1, 1.0])),
            starts=int(rng.integers(1, 3)),
            max_iter=int(rng.choice([0, 1, 40, 200])),
            seed=case,
        )
        fit, ref = fit_latent_space(net, **kw), fit_latent_space_oracle(net, **kw)
        assert np.array_equal(fit.positions, ref.positions), (case, kw)
        assert (fit.alpha, fit.objective, fit.stop, fit.n_iter) == (
            ref.alpha, ref.objective, ref.stop, ref.n_iter
        ), (case, kw)


def test_mmsbm_matches_loop_oracle_on_random_nets():
    # tol 1e-4 stops restarts of one stack at different iterations, so rows
    # leave the stack while others go on
    for case in range(60):
        rng = np.random.default_rng(1000 + case)
        K = int(rng.integers(1, 6))
        net = random_net(rng, int(rng.integers(K, 41)))
        kw = dict(
            K=K,
            restarts=int(rng.integers(1, 6)),
            max_iter=int(rng.choice([0, 1, 20, 80, 300])),
            tol=float(rng.choice([0.0, 1e-7, 1e-4])),
            seed=case,
        )
        fit, (ref, _) = fit_mmsbm(net, **kw), fit_mmsbm_oracle(net, **kw)
        assert np.array_equal(fit.pi, ref.pi) and np.array_equal(fit.B, ref.B), (case, kw)
        assert (fit.objective, fit.stop, fit.n_iter) == (
            ref.objective, ref.stop, ref.n_iter
        ), (case, kw)


def test_mmsbm_raises_the_error_of_the_first_failing_restart(monkeypatch):
    """With a smoothing weight of 1e9 the objective is so large that its
    rounding outruns the 1e-6 slack. On this net restart 1 fails at
    iteration 2 and restart 0 at iteration 3; a loop over the restarts
    raises restart 0's error, and so must the stack, which sees restart 1
    fail first."""
    monkeypatch.setattr(latent, "MMSBM_EPS", 1e9)
    monkeypatch.setattr(helpers, "MMSBM_EPS", 1e9)
    rng = np.random.default_rng(12)
    n, K = int(rng.integers(6, 16)), int(rng.integers(2, 4))
    net = random_net(rng, n)
    kw = dict(K=K, max_iter=50, tol=0.0, seed=12)

    def message(fit, **more):
        with pytest.raises(FitError) as caught:
            fit(net, **kw, **more)
        return str(caught.value)

    first = message(fit_mmsbm_oracle, restarts=2)
    assert first.endswith("at iteration 3")
    for restarts in (2, 4):
        assert message(fit_mmsbm, restarts=restarts) == first

    def shifted(seed, tag, r):  # restart r draws restart r + 1's start
        return helpers.seed_for(seed, tag, r + 1)

    # restart 1 alone fails earlier
    monkeypatch.setattr(latent, "seed_for", shifted)
    assert message(fit_mmsbm, restarts=1).endswith("at iteration 2")
