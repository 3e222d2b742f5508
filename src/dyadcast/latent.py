"""Latent-structure fits on a lagged network.

Three complementary summaries of who fights whom:

* random-walk community detection (agglomerative, modularity cut),
* a mixed-membership blockmodel fitted by penalized EM,
* a Euclidean latent-space model fitted by backtracking gradient descent
  on its negated penalized log likelihood (``descent.descend``).

All three consume the undirected or directed binary adjacency of one
lagged window and are bundled together behind a content-addressed cache,
so re-fitting only happens when the window's node or edge content
actually changes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
from dataclasses import dataclass

import numpy as np

from .codec import Count, NonNegative, Positive, Saved, checked, encode
from .descent import descend
from .errors import FitError
from .seeding import seed_for
from .store import LaggedNetwork


def modularity(nodes, und_edges, labels) -> float:
    """Newman modularity of a hard partition on an undirected simple graph.

    und_edges are (a, b) index pairs with a < b; labels maps node index to
    community id. Returns 0 for the empty graph.
    """
    m = len(und_edges)
    if m == 0:
        return 0.0
    L = {}
    D = {}
    deg = {}
    for a, b in und_edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
        if labels[a] == labels[b]:
            L[labels[a]] = L.get(labels[a], 0) + 1
    for k in range(len(nodes)):
        c = labels[k]
        D[c] = D.get(c, 0) + deg.get(k, 0)
    q = 0.0
    for c in D:
        q += L.get(c, 0) / m - (D[c] / (2.0 * m)) ** 2
    return q


@dataclass(frozen=True)
class CommunityPartition(Saved):
    """Hard community assignment with the modularity of the chosen cut.

    merges is the full agglomeration dendrogram as (a, b, new) label
    triples over integer labels; labels 0..n-1 are nodes in sorted-id
    order, merged communities get fresh labels n, n+1, ... The labels dict
    itself is kept in sorted node order.
    """

    labels: dict
    modularity: float
    walk_length: int
    merges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(sorted(self.labels.items())))

    def same_community(self, i: str, j: str) -> bool:
        if i not in self.labels or j not in self.labels:
            raise ValueError(f"node not in partition: {i if i not in self.labels else j!r}")
        return self.labels[i] == self.labels[j]

    def n_communities(self) -> int:
        return len(set(self.labels.values()))


def _dsigma(size1, phat1, size2, phat2, d, n):
    r2 = float(np.sum((phat1 - phat2) ** 2 / d))
    return (size1 * size2) / (size1 + size2) / n * r2


@checked
def walktrap(net: LaggedNetwork, walk_length: Positive = 4) -> CommunityPartition:
    """Agglomerative short-random-walk clustering, cut at max modularity.

    The walk runs on the lazy chain (unit self-loops added), communities
    merge greedily by smallest squared walk-distance increase, and only
    pairs joined by at least one original edge are mergeable. The merge
    sequence is cut at the stage of maximum modularity computed on the
    original graph; ties keep the earliest (least merged) stage. Nodes in
    separate components are never merged together.
    """
    nodes = net.node_list()
    A = np.maximum(net.adjacency, net.adjacency.T)
    und_edges = [tuple(e) for e in np.argwhere(np.triu(A, 1)).tolist()]
    n = len(nodes)
    if n == 0:
        raise ValueError("cannot partition an empty node set")

    lazy = A + np.eye(n)
    d = lazy.sum(axis=1)
    P = lazy / d[:, None]
    Pt = np.linalg.matrix_power(P, walk_length)

    size = {k: 1 for k in range(n)}
    phat = {k: Pt[k].copy() for k in range(n)}
    adj = {k: set() for k in range(n)}
    for a, b in und_edges:
        adj[a].add(b)
        adj[b].add(a)

    # modularity of each stage on the original graph, updated as it merges
    m = len(und_edges)
    D = dict(enumerate(A.sum(axis=1).tolist()))
    q = best_q = -sum((D[k] / (2 * m)) ** 2 for k in range(n)) if m else 0.0
    best_stage = 0

    alive = set(range(n))
    ds = {}
    links = dict.fromkeys(und_edges, 1)  # edges between adjacent communities, keyed like ds
    heap = []
    for a, b in und_edges:
        val = _dsigma(1, phat[a], 1, phat[b], d, n)
        ds[(a, b)] = val
        heapq.heappush(heap, (val, a, b))

    merges = []
    next_label = n
    while heap:
        val, a, b = heapq.heappop(heap)
        if a not in alive or b not in alive:
            continue
        new = next_label
        next_label += 1
        nbrs = (adj[a] | adj[b]) - {a, b}
        alive.discard(a)
        alive.discard(b)
        alive.add(new)
        size[new] = size[a] + size[b]
        phat[new] = (size[a] * phat[a] + size[b] * phat[b]) / size[new]
        adj[new] = set()
        for x in sorted(nbrs):
            adj[x].discard(a)
            adj[x].discard(b)
            adj[x].add(new)
            adj[new].add(x)
            key_ax = (min(a, x), max(a, x))
            key_bx = (min(b, x), max(b, x))
            if key_ax in ds and key_bx in ds:
                # merged distance from the two known ones, no phat pass
                nv = (
                    (size[a] + size[x]) * ds[key_ax]
                    + (size[b] + size[x]) * ds[key_bx]
                    - size[x] * val
                ) / (size[new] + size[x])
            else:
                nv = _dsigma(size[new], phat[new], size[x], phat[x], d, n)
            key = (min(new, x), max(new, x))
            ds[key] = nv
            links[key] = links.get(key_ax, 0) + links.get(key_bx, 0)
            heapq.heappush(heap, (nv, key[0], key[1]))
        merges.append((a, b, new))
        q += links[(a, b)] / m - 2.0 * (D[a] / (2 * m)) * (D[b] / (2 * m))
        D[new] = D[a] + D[b]
        if q > best_q + 1e-12:
            best_q = q
            best_stage = len(merges)

    current = {k: {k} for k in range(n)}
    for a, b, new in merges[:best_stage]:
        current[new] = current.pop(a) | current.pop(b)
    groups = sorted((sorted(g) for g in current.values()), key=lambda g: g[0])
    labels_idx = {}
    for cid, group in enumerate(groups):
        for k in group:
            labels_idx[k] = cid
    q_final = modularity(nodes, und_edges, labels_idx)
    labels = {nodes[k]: labels_idx[k] for k in range(n)}
    return CommunityPartition(
        labels=labels, modularity=q_final, walk_length=walk_length, merges=tuple(merges)
    )


@dataclass
class MMSBMFit(Saved):
    """Point estimates of a mixed-membership blockmodel.

    history holds the penalized objective after each EM iteration of the
    winning restart; it is non-decreasing by construction.
    """

    nodes: tuple
    pi: np.ndarray
    B: np.ndarray
    objective: float
    converged: bool
    n_iter: int
    history: tuple = ()

    def __post_init__(self):
        self._index = {node: k for k, node in enumerate(self.nodes)}

    def prob(self, i: str, j: str) -> float:
        if i not in self._index or j not in self._index:
            raise ValueError(f"node not in fit: {i if i not in self._index else j!r}")
        p = self.pi[self._index[i]] @ self.B @ self.pi[self._index[j]]
        return float(p)


MMSBM_EPS = 1e-6


@checked
def fit_mmsbm(
    net: LaggedNetwork,
    K: Positive = 4,
    restarts: Positive = 5,
    max_iter: Count = 300,
    tol: NonNegative = 1e-7,
    seed: int = 0,
) -> MMSBMFit:
    """Penalized EM for sender/receiver role mixtures.

    Each ordered dyad draws a sender role from the sender's mixture and a
    receiver role from the receiver's, then an edge with the block
    probability for that role pair. Dirichlet/Beta smoothing with weight
    eps = MMSBM_EPS keeps every parameter interior, which makes the penalized
    log likelihood

        loglik + eps*sum(log pi) + eps*sum(log B + log(1-B))

    non-decreasing across iterations. The best of `restarts` random
    initializations wins by that objective.
    """
    nodes = tuple(net.node_list())
    n = len(nodes)
    if n < K:
        raise ValueError(f"need at least K={K} nodes, have {n}")

    Y = net.adjacency
    mask = 1.0 - np.eye(n)
    eps = MMSBM_EPS

    def objective(pi, B):  # and the edge probabilities the next E step reads
        P1 = np.clip(pi @ B @ pi.T, 1e-300, 1.0 - 1e-16)
        ll = np.sum(mask * (Y * np.log(P1) + (1.0 - Y) * np.log(1.0 - P1)))
        return ll + eps * np.sum(np.log(pi)) + eps * np.sum(np.log(B) + np.log(1.0 - B)), P1

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed_for(seed, "mmsbm-restart", r))
        pi = rng.dirichlet(np.ones(K), size=n)
        B = rng.uniform(0.1, 0.9, size=(K, K))
        prev, P1 = objective(pi, B)
        history = []
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            W1 = mask * Y / P1
            W0 = mask * (1.0 - Y) / (1.0 - P1)
            N1 = B * (pi.T @ W1 @ pi)
            N0 = (1.0 - B) * (pi.T @ W0 @ pi)
            counts = pi * (W1 @ (pi @ B.T) + W0 @ (pi @ (1.0 - B).T))
            counts += pi * (W1.T @ (pi @ B) + W0.T @ (pi @ (1.0 - B)))
            B = (N1 + eps) / (N1 + N0 + 2.0 * eps)
            pi = counts + eps
            pi /= pi.sum(axis=1, keepdims=True)
            obj, P1 = objective(pi, B)
            if obj < prev - 1e-6:
                raise FitError(
                    f"EM objective decreased from {prev} to {obj} at iteration {it}"
                )
            history.append(obj)
            if abs(obj - prev) < tol * (1.0 + abs(obj)):
                converged = True
                prev = obj
                break
            prev = obj
        if best is None or prev > best.objective:
            best = MMSBMFit(nodes, pi, B, prev, converged, it, tuple(history))
    return best


@dataclass
class LatentSpaceFit(Saved):
    """Positions and intercept of a distance model for directed edges."""

    nodes: tuple
    positions: np.ndarray
    alpha: float
    objective: float
    converged: bool
    degenerate: bool
    n_iter: int = 0

    def __post_init__(self):
        self._index = {node: k for k, node in enumerate(self.nodes)}

    def distance(self, i: str, j: str) -> float:
        if i not in self._index or j not in self._index:
            raise ValueError(f"node not in fit: {i if i not in self._index else j!r}")
        delta = self.positions[self._index[i]] - self.positions[self._index[j]]
        return float(np.sqrt(np.sum(delta**2)))


ALPHA_CAP = 30.0
LATENT_GRAD_TOL = 1e-5


@checked
def fit_latent_space(
    net: LaggedNetwork,
    dim: Positive = 2,
    tau: NonNegative = 0.1,
    starts: Positive = 3,
    max_iter: Count = 500,
    seed: int = 0,
) -> LatentSpaceFit:
    """MAP fit of P(i->j) = sigmoid(alpha - ||z_i - z_j||).

    A ridge penalty tau*sum(||z||^2) on positions (never the intercept)
    pins the translation/rotation freedom enough for optimization.
    ``descend`` minimizes the negated objective from step 0.1, reusing
    each accepted point's distance matrix for its gradient, and stops once
    every gradient entry is below LATENT_GRAD_TOL; best of `starts` random
    starts by penalized objective. Empty and complete graphs get a
    closed-form degenerate fit: all positions at the origin and alpha at
    -+ALPHA_CAP.
    """
    nodes = tuple(net.node_list())
    n = len(nodes)
    if n == 0:
        raise ValueError("cannot fit a latent space on an empty node set")
    n_dyads = n * (n - 1)

    Y = net.adjacency
    mask = 1.0 - np.eye(n)
    n_edges = int(Y.sum())

    if n < 2 or n_edges == 0 or n_edges == n_dyads:
        alpha = 0.0 if n < 2 else (-ALPHA_CAP if n_edges == 0 else ALPHA_CAP)
        z = np.zeros((n, dim))
        m = alpha * mask
        ll = float(np.sum(mask * (Y * (-np.logaddexp(0.0, -m)) + (1.0 - Y) * (-np.logaddexp(0.0, m)))))
        return LatentSpaceFit(nodes, z, alpha, ll, True, True, 0)

    def value(x):
        z, alpha = x
        dmat = np.sqrt(np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2) + 1e-18)
        m = alpha - dmat
        ll = np.sum(mask * (Y * (-np.logaddexp(0.0, -m)) + (1.0 - Y) * (-np.logaddexp(0.0, m))))
        return -float(ll - tau * np.sum(z**2)), dmat

    def gradient(x, dmat):
        z, alpha = x
        p = 1.0 / (1.0 + np.exp(-np.clip(alpha - dmat, -500, 500)))
        E = mask * (Y - p)
        S = (E + E.T) / dmat
        np.fill_diagonal(S, 0.0)
        return (S.sum(axis=1)[:, None] * z - S @ z) + 2.0 * tau * z, -float(E.sum())

    def project(x):
        return x[0], float(np.clip(x[1], -ALPHA_CAP, ALPHA_CAP))

    density = n_edges / n_dyads
    alpha0 = float(np.clip(np.log(density / (1.0 - density)), -ALPHA_CAP, ALPHA_CAP))

    best = None
    for s in range(starts):
        rng = np.random.default_rng(seed_for(seed, "latent-start", s))
        z = rng.normal(0.0, 1.0, size=(n, dim))
        (z, alpha), v, converged, it = descend(
            (z, alpha0), value, gradient, 0.1, max_iter, LATENT_GRAD_TOL, project
        )
        if best is None or -v > best.objective:
            best = LatentSpaceFit(nodes, z, alpha, -v, converged, False, it)
    return best


@dataclass(frozen=True)
class LatentConfig:
    """Knobs for all three latent fits; hashed into the cache key."""

    walk_length: Positive = 4
    mmsbm_k: Positive = 4
    mmsbm_restarts: Positive = 5
    mmsbm_max_iter: Count = 300
    mmsbm_tol: NonNegative = 1e-7
    latent_dim: Positive = 2
    latent_tau: NonNegative = 0.1
    latent_starts: Positive = 3
    latent_max_iter: Count = 500

    def fingerprint(self) -> str:
        payload = json.dumps(encode(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class LatentBundle(Saved):
    partition: CommunityPartition
    mmsbm: MMSBMFit
    latent: LatentSpaceFit
    content_hash: str


def fit_bundle(net: LaggedNetwork, config: LatentConfig, master_seed: int) -> LatentBundle:
    """All three latent fits for one window, seeded from the window content
    so that identical windows always produce identical fits."""
    chash = net.content_hash()
    partition = walktrap(net, walk_length=config.walk_length)
    mmsbm = fit_mmsbm(
        net,
        K=config.mmsbm_k,
        restarts=config.mmsbm_restarts,
        max_iter=config.mmsbm_max_iter,
        tol=config.mmsbm_tol,
        seed=seed_for(master_seed, "mmsbm", chash),
    )
    latent = fit_latent_space(
        net,
        dim=config.latent_dim,
        tau=config.latent_tau,
        starts=config.latent_starts,
        max_iter=config.latent_max_iter,
        seed=seed_for(master_seed, "latent", chash),
    )
    return LatentBundle(partition=partition, mmsbm=mmsbm, latent=latent, content_hash=chash)


class BundleCache:
    """Memoizes latent bundles by (window content, config, master seed).

    The in-memory layer always applies. Set DYADCAST_CACHE_DIR (or pass
    cache_dir) to also persist bundles as JSON across processes.
    """

    def __init__(self, cache_dir=None):
        self._mem = {}
        if cache_dir is None:
            cache_dir = os.environ.get("DYADCAST_CACHE_DIR")
        self.cache_dir = cache_dir
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)

    def get(self, net: LaggedNetwork, config: LatentConfig, master_seed: int) -> LatentBundle:
        key = (net.content_hash(), config.fingerprint(), int(master_seed))
        bundle = self._mem.get(key)
        if bundle is not None:
            return bundle
        path = None
        if self.cache_dir:
            path = os.path.join(self.cache_dir, "-".join(map(str, key)) + ".json")
            if os.path.exists(path):
                with open(path) as fh:
                    bundle = LatentBundle.from_json(json.load(fh))
                self._mem[key] = bundle
                return bundle
        bundle = fit_bundle(net, config, master_seed)
        self._mem[key] = bundle
        if path:
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(bundle.to_json(), fh)
            os.replace(tmp, path)
        return bundle
