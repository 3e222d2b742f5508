import json

import numpy as np
import pytest

from dyadcast import (
    BundleCache,
    CommunityPartition,
    LatentBundle,
    LatentConfig,
    LatentSpaceFit,
    MMSBMFit,
    fit_bundle,
    fit_latent_space,
    fit_mmsbm,
    modularity,
    walktrap,
)
from helpers import (
    best_modularity_partition,
    fit_latent_space_oracle,
    fit_mmsbm_oracle,
    make_net,
    modularity_dict_oracle,
    partition_as_groups,
    spearman,
    tiny_latent_config,
    walktrap_oracle,
)


def two_cliques_bridge():
    edges = [("x0", "x1"), ("x0", "x2"), ("x1", "x2"),
             ("y0", "y1"), ("y0", "y2"), ("y1", "y2"),
             ("x0", "y0")]
    return make_net(edges)


# --------------------------------------------------------------- walktrap

def test_walktrap_two_cliques():
    part = walktrap(two_cliques_bridge())
    assert part.n_communities() == 2
    assert part.same_community("x0", "x1")
    assert part.same_community("y0", "y2")
    assert not part.same_community("x0", "y0")


def test_walktrap_matches_exhaustive_oracle():
    net = two_cliques_bridge()
    part = walktrap(net)
    n2i = {n: k for k, n in enumerate(sorted(net.nodes))}
    und = sorted(
        {(min(n2i[i], n2i[j]), max(n2i[i], n2i[j])) for i, j in net.edges}
    )
    best, best_q, unique = best_modularity_partition(len(net.nodes), und)
    assert unique
    assert partition_as_groups({n2i[n]: c for n, c in part.labels.items()}) == best
    assert part.modularity == pytest.approx(best_q, abs=1e-12)


def test_walktrap_complete_graph_single_community():
    nodes = ["a", "b", "c", "d"]
    edges = [(i, j) for i in nodes for j in nodes if i < j]
    part = walktrap(make_net(edges))
    assert part.n_communities() == 1


def test_walktrap_disconnected_edges():
    part = walktrap(make_net([("a", "b"), ("c", "d")]))
    assert part.n_communities() == 2
    assert part.same_community("a", "b")
    assert not part.same_community("a", "c")


def test_walktrap_isolates_stay_singletons():
    net = make_net([("a", "b"), ("a", "c"), ("b", "c")], nodes=["a", "b", "c", "z"])
    part = walktrap(net)
    assert not part.same_community("a", "z")
    assert part.n_communities() == 2


def test_walktrap_reported_modularity_consistent():
    for net in (two_cliques_bridge(), make_net([("a", "b"), ("c", "d"), ("b", "c")])):
        part = walktrap(net)
        nodes = sorted(net.nodes)
        n2i = {n: k for k, n in enumerate(nodes)}
        und = {(min(n2i[i], n2i[j]), max(n2i[i], n2i[j])) for i, j in net.edges}
        labels_idx = {n2i[n]: c for n, c in part.labels.items()}
        assert abs(part.modularity - modularity(nodes, und, labels_idx)) <= 1e-10


def test_walktrap_no_edges_all_singletons():
    part = walktrap(make_net([], nodes=["a", "b", "c"]))
    assert part.n_communities() == 3
    assert part.modularity == 0.0


def test_walktrap_relabel_invariant_grouping():
    # same shape, shuffled names: grouping structure must match
    ren = {"x0": "m", "x1": "q", "x2": "b", "y0": "a", "y1": "z", "y2": "k"}
    net1 = two_cliques_bridge()
    net2 = make_net([(ren[i], ren[j]) for i, j in net1.edges])
    p1, p2 = walktrap(net1), walktrap(net2)
    for i in net1.nodes:
        for j in net1.nodes:
            if i != j:
                assert p1.same_community(i, j) == p2.same_community(ren[i], ren[j])


def test_walktrap_merge_count():
    part = walktrap(two_cliques_bridge())
    assert len(part.merges) == len(two_cliques_bridge().nodes) - 1  # connected


def test_walktrap_matches_replay_oracle_on_random_graphs():
    # stages scored inside the merge loop give the same cut, dendrogram and
    # modularity, bit for bit, as replaying the merges afterwards
    rng = np.random.default_rng(20061)
    sizes = [int(rng.integers(1, 16)) for _ in range(1000)]
    sizes += [int(rng.integers(16, 91)) for _ in range(200)]
    for n in sizes:
        nodes = [f"n{k:02d}" for k in range(n)]
        density = rng.uniform(0.05, 0.8)
        edges = [(i, j) for i in nodes for j in nodes if i != j and rng.random() < density]
        net = make_net(edges, nodes=nodes)
        walk_length = int(rng.integers(1, 6))
        got, want = walktrap(net, walk_length), walktrap_oracle(net, walk_length)
        assert got.labels == want.labels
        assert got.merges == want.merges
        assert got.modularity == want.modularity


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
    part = walktrap(two_cliques_bridge())
    assert part.same_community("x0", "x1")
    assert not part.same_community("x0", "y0")
    with pytest.raises(ValueError):
        part.same_community("x0", "nope")


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
    density = 3 / 12
    for i in "abcd":
        for j in "abcd":
            if i != j:
                assert fit.prob(i, j) == pytest.approx(density, abs=1e-5)


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
    fit = fit_mmsbm(make_net(edges, nodes), K=3, restarts=2, max_iter=150, seed=1)
    hist = np.array(fit.history)
    assert len(hist) == fit.n_iter
    assert np.all(np.diff(hist) >= -1e-6)
    assert np.allclose(fit.pi.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(fit.pi >= 0)
    assert np.all((fit.B > 0) & (fit.B < 1))


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
    within = [fit.prob(i, j) for i in nodes for j in nodes if i != j and block[i] == block[j]]
    between = [fit.prob(i, j) for i in nodes for j in nodes if i != j and block[i] != block[j]]
    assert np.mean(within) > np.mean(between)


def test_mmsbm_deterministic():
    net = make_net([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    f1 = fit_mmsbm(net, K=2, restarts=2, seed=9)
    f2 = fit_mmsbm(net, K=2, restarts=2, seed=9)
    assert np.array_equal(f1.pi, f2.pi)
    assert np.array_equal(f1.B, f2.B)
    assert f1.objective == f2.objective


def test_mmsbm_prob_constructed():
    fit = MMSBMFit(
        nodes=("a", "b"),
        pi=np.array([[1.0, 0.0], [0.0, 1.0]]),
        B=np.array([[0.9, 0.2], [0.3, 0.6]]),
        objective=0.0,
        converged=True,
        n_iter=0,
    )
    assert fit.prob("a", "b") == pytest.approx(0.2, abs=1e-15)
    uniform = MMSBMFit(
        nodes=("a", "b"),
        pi=np.full((2, 2), 0.5),
        B=np.array([[0.9, 0.2], [0.3, 0.6]]),
        objective=0.0,
        converged=True,
        n_iter=0,
    )
    assert uniform.prob("a", "b") == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        fit.prob("a", "zz")


def test_mmsbm_json_round_trip():
    net = make_net([("a", "b"), ("b", "c")])
    fit = fit_mmsbm(net, K=2, restarts=1, max_iter=50, seed=0)
    back = MMSBMFit.from_json(json.loads(json.dumps(fit.to_json())))
    assert back.nodes == fit.nodes
    assert np.array_equal(back.pi, fit.pi)
    assert np.array_equal(back.B, fit.B)
    assert back.prob("a", "b") == fit.prob("a", "b")


# ---------------------------------------------------------- latent space

def test_latent_distance_is_euclidean():
    fit = LatentSpaceFit(
        nodes=("a", "b"),
        positions=np.array([[0.0, 0.0], [3.0, 4.0]]),
        alpha=0.0,
        objective=0.0,
        converged=True,
        degenerate=False,
    )
    assert fit.distance("a", "b") == 5.0
    assert fit.distance("b", "a") == 5.0
    with pytest.raises(ValueError):
        fit.distance("a", "zz")


def test_latent_degenerate_empty_graph():
    fit = fit_latent_space(make_net([], nodes=["a", "b", "c"]), seed=0)
    assert fit.degenerate and fit.converged
    assert fit.alpha == -30.0
    assert np.array_equal(fit.positions, np.zeros((3, 2)))
    assert fit.n_iter == 0


def test_latent_degenerate_complete_graph():
    nodes = ["a", "b", "c"]
    edges = [(i, j) for i in nodes for j in nodes if i != j]
    fit = fit_latent_space(make_net(edges, nodes), seed=0)
    assert fit.degenerate
    assert fit.alpha == 30.0


def test_latent_single_node():
    fit = fit_latent_space(make_net([], nodes=["a"]), seed=0)
    assert fit.degenerate
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
    assert not fit.degenerate
    assert fit.distance("a", "b") < fit.distance("a", "c")
    assert fit.distance("a", "b") < fit.distance("b", "c")


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
            fit_d.append(fit.distance(nodes[i], nodes[j]))
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
    assert back.alpha == fit.alpha
    assert back.distance("a", "c") == fit.distance("a", "c")


# ---------------------------------------------------------------- bundle

def test_fit_bundle_deterministic():
    net = two_cliques_bridge()
    cfg = tiny_latent_config()
    b1 = fit_bundle(net, cfg, master_seed=11)
    b2 = fit_bundle(net, cfg, master_seed=11)
    assert b1.to_json() == b2.to_json()
    assert b1.content_hash == net.content_hash()


def test_bundle_json_round_trip():
    bundle = fit_bundle(two_cliques_bridge(), tiny_latent_config(), master_seed=0)
    back = LatentBundle.from_json(json.loads(json.dumps(bundle.to_json())))
    assert back.to_json() == bundle.to_json()


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
    shifted = make_net(net.edges, net.nodes, window=(5, 9))
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


# ------------------------------------------- loop oracles (before descend)

def random_net(rng, n):
    """A random directed graph on n nodes, density itself drawn in (0, 0.7)."""
    nodes = [f"v{k:02d}" for k in range(n)]
    density = rng.uniform(0.0, 0.7)
    edges = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < density]
    return make_net(edges, nodes)


def test_latent_space_matches_loop_oracle_on_random_nets():
    for case in range(60):
        rng = np.random.default_rng(case)
        net = random_net(rng, int(rng.integers(2, 16)))
        kw = dict(
            dim=int(rng.integers(1, 4)),
            tau=float(rng.choice([0.0, 0.1, 1.0])),
            starts=int(rng.integers(1, 3)),
            max_iter=int(rng.choice([0, 1, 40, 200])),
            seed=case,
        )
        fit, ref = fit_latent_space(net, **kw), fit_latent_space_oracle(net, **kw)
        assert np.array_equal(fit.positions, ref.positions), (case, kw)
        assert (fit.alpha, fit.objective, fit.converged, fit.degenerate, fit.n_iter) == (
            ref.alpha, ref.objective, ref.converged, ref.degenerate, ref.n_iter
        ), (case, kw)


def test_mmsbm_matches_loop_oracle_on_random_nets():
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        K = int(rng.integers(1, 4))
        net = random_net(rng, int(rng.integers(K, 13)))
        kw = dict(
            K=K,
            restarts=int(rng.integers(1, 3)),
            max_iter=int(rng.choice([0, 1, 20, 80])),
            tol=float(rng.choice([0.0, 1e-7])),
            seed=case,
        )
        fit, ref = fit_mmsbm(net, **kw), fit_mmsbm_oracle(net, **kw)
        assert np.array_equal(fit.pi, ref.pi) and np.array_equal(fit.B, ref.B), (case, kw)
        assert (fit.objective, fit.converged, fit.n_iter, fit.history) == (
            ref.objective, ref.converged, ref.n_iter, ref.history
        ), (case, kw)
