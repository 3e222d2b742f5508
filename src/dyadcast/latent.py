"""Latent-structure fits on a lagged network.

Three complementary summaries of who fights whom:

* random-walk community detection (agglomerative, modularity cut),
* a mixed-membership blockmodel fitted by penalized EM, all restarts
  stacked along a leading axis and stepped together,
* a Euclidean latent-space model fitted by backtracking gradient descent
  on its negated penalized log likelihood (``descent.descend``).

Each iterative fit is pinned bit for bit to the loop it replaced (kept as
an oracle in ``tests/helpers.py``), so its kernel saves only work that
leaves every float the same: the latent space computes each distance,
margin, sigmoid and log term once per unordered pair of nodes, puts them
back into the (n, n) layout before any sum, and hands the margins its
value built to its gradient; MMSBM computes 1 - B and 1 - P once each,
and steps its restarts as one stack, whose matmuls and per-restart sums
are each restart's own.

All three consume the undirected or directed binary adjacency of one
lagged window and are bundled together behind a content-addressed cache,
so re-fitting only happens when the window's node or edge content
actually changes. The bundle holds the window's sorted node tuple once;
every fit inside it is positional in that order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .codec import Count, NonNegative, Positive, Saved, checked, encode
from .descent import FitReport, descend
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
    _, first, comm = np.unique(
        [labels[k] for k in range(len(nodes))], return_index=True, return_inverse=True
    )
    ends = comm[np.array(list(und_edges))]
    within = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=len(first)).tolist()
    degree = np.bincount(ends.ravel(), minlength=len(first)).tolist()
    # summed in each community's order of first node
    return sum(within[c] / m - (degree[c] / (2.0 * m)) ** 2 for c in np.argsort(first).tolist())


@dataclass(frozen=True)
class CommunityPartition(Saved):
    """Hard community assignment with the modularity of the chosen cut.

    labels[k] is the community id of the k-th node in sorted-id order,
    communities numbered in order of their first node. merges is the full
    agglomeration dendrogram as (a, b, new) label triples over integer
    labels; labels 0..n-1 are the nodes, merged communities get fresh
    labels n, n+1, ...
    """

    labels: tuple
    modularity: float
    walk_length: int
    merges: tuple = ()


@checked
def walktrap(net: LaggedNetwork, walk_length: Positive = 4) -> CommunityPartition:
    """Agglomerative short-random-walk clustering, cut at max modularity.

    The walk runs on the lazy chain (unit self-loops added), communities
    merge greedily by smallest squared walk-distance increase, and only
    pairs joined by at least one original edge are mergeable. The merge
    sequence is cut at the stage of maximum modularity computed on the
    original graph; ties keep the earliest (least merged) stage. Nodes in
    separate components are never merged together.

    Community labels index dense arrays: 0..n-1 are the nodes and merge k
    creates label n+k. ds holds the distance increase of every live
    adjacent pair and inf elsewhere, so the first argmin in row-major order
    is the smallest increase with ties to the lowest label pair. members
    lists each community's nodes, from which a merge counts the edges
    between its two communities.
    """
    nodes = net.nodes
    A = np.maximum(net.adjacency, net.adjacency.T)
    ea, eb = np.nonzero(np.triu(A, 1))
    und_edges = list(zip(ea.tolist(), eb.tolist()))
    n = len(nodes)
    if n == 0:
        raise ValueError("cannot partition an empty node set")

    lazy = A + np.eye(n)
    d = lazy.sum(axis=1)
    P = lazy / d[:, None]
    Pt = np.linalg.matrix_power(P, walk_length)

    def dsigma(size1, phat1, size2, phat2):
        return (size1 * size2) / (size1 + size2) / n * np.sum((phat1 - phat2) ** 2 / d, axis=-1)

    N = 2 * n - 1
    size = np.zeros(N, dtype=int)
    size[:n] = 1
    degree = np.zeros(N)
    degree[:n] = A.sum(axis=1)
    phat = np.zeros((N, n))
    phat[:n] = Pt
    members = [[k] for k in range(n)]
    ds = np.full((N, N), np.inf)
    # n edges at a time, so that no temporary outgrows phat
    for lo in range(0, len(ea), n):
        i, j = ea[lo:lo + n], eb[lo:lo + n]
        ds[i, j] = ds[j, i] = dsigma(1, phat[i], 1, phat[j])

    # modularity of each stage on the original graph, updated as it merges
    m = len(und_edges)
    q = best_q = -sum((x / (2 * m)) ** 2 for x in degree[:n].tolist()) if m else 0.0
    best_stage = 0

    merges = []
    for new in range(n, N):
        a, b = divmod(int(np.argmin(ds)), N)
        val = ds[a, b]
        if val == np.inf:
            break
        near_a, near_b = ds[a] < np.inf, ds[b] < np.inf
        near_a[b] = near_b[a] = False
        X = np.flatnonzero(near_a | near_b)
        both = near_a[X] & near_b[X]
        sa, sb, sx = size[a], size[b], size[X]
        size[new] = sa + sb
        phat[new] = (sa * phat[a] + sb * phat[b]) / size[new]
        # merged distance from the two known ones where both exist, no phat pass
        xb, sxb = X[both], sx[both]
        ds[new, xb] = (
            (sa + sxb) * ds[a, xb] + (sb + sxb) * ds[b, xb] - sxb * val
        ) / (size[new] + sxb)
        ds[new, X[~both]] = dsigma(size[new], phat[new], sx[~both], phat[X[~both]])
        ds[X, new] = ds[new, X]
        ds[[a, b]] = ds[:, [a, b]] = np.inf
        members.append(members[a] + members[b])
        merges.append((a, b, new))
        between = A[np.ix_(members[a], members[b])].sum()
        q += between / m - 2.0 * (degree[a] / (2 * m)) * (degree[b] / (2 * m))
        degree[new] = degree[a] + degree[b]
        if q > best_q + 1e-12:
            best_q = q
            best_stage = len(merges)

    root = np.arange(n)
    for a, b, new in merges[:best_stage]:
        root[(root == a) | (root == b)] = new
    ids = {}  # communities numbered in order of their first node
    labels_idx = [ids.setdefault(r, len(ids)) for r in root.tolist()]
    q_final = modularity(nodes, und_edges, labels_idx)
    return CommunityPartition(tuple(labels_idx), q_final, walk_length, tuple(merges))


@dataclass
class MMSBMFit(FitReport, Saved):
    """Point estimates of a mixed-membership blockmodel: pi[k] is the role
    mixture of the k-th node in sorted-id order, B the block probabilities,
    so P(i->j) = pi[i] @ B @ pi[j]."""

    pi: np.ndarray
    B: np.ndarray


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

    non-decreasing across iterations; an iteration that lowers it raises
    FitError, and a relative change below tol stops it at "tolerance".
    The best of `restarts` random initializations wins by that objective,
    the first in restart order on a tie.

    The restarts run stacked: pi is (restarts, n, K) and B (restarts, K, K),
    each EM step is one step of the whole stack, and a restart leaves it
    when it stops, with its own n_iter. Every float is the one a loop over
    the restarts computes, and a failure raises the error of the first
    restart that fails, as that loop would.
    """
    n = len(net.nodes)
    if n < K:
        raise ValueError(f"need at least K={K} nodes, have {n}")

    Y = net.adjacency
    mask = 1.0 - np.eye(n)
    edge = Y == 1
    mask_y, mask_not_y = mask * Y, mask * (1.0 - Y)
    eps = MMSBM_EPS

    def total(a):  # per restart
        return a.sum(axis=(1, 2))

    def objective(pi, B, C):  # C = 1 - B; and the P1, 1 - P1 the next E step reads
        # np.clip's result without its wrapper's overhead
        P1 = np.minimum(np.maximum(pi @ B @ pi.transpose(0, 2, 1), 1e-300), 1.0 - 1e-16)
        P0 = 1.0 - P1
        ll = total(mask * np.log(np.where(edge, P1, P0)))
        return ll + eps * total(np.log(pi)) + eps * total(np.log(B) + np.log(C)), P1, P0

    # restart r draws its start from its own generator: dirichlet, then uniform
    rngs = [np.random.default_rng(seed_for(seed, "mmsbm-restart", r)) for r in range(restarts)]
    pi = np.stack([rng.dirichlet(np.ones(K), size=n) for rng in rngs])
    B = np.stack([rng.uniform(0.1, 0.9, size=(K, K)) for rng in rngs])
    C = 1.0 - B
    prev, P1, P0 = objective(pi, B, C)
    live = np.arange(restarts)  # the restart of each row of the stack
    out = [None] * restarts  # each restart's fit, or the text of its FitError

    def leave(k, stop, value):  # row k's fit, copied out of the stack
        out[live[k]] = MMSBMFit(pi[k].copy(), B[k].copy(), stop=stop, n_iter=it, objective=value)

    it = 0
    for it in range(1, max_iter + 1):
        W1 = mask_y / P1
        W0 = mask_not_y / P0
        piT = pi.transpose(0, 2, 1)
        N1 = B * (piT @ W1 @ pi)
        N0 = C * (piT @ W0 @ pi)
        counts = pi * (W1 @ (pi @ B.transpose(0, 2, 1)) + W0 @ (pi @ C.transpose(0, 2, 1)))
        counts += pi * (W1.transpose(0, 2, 1) @ (pi @ B) + W0.transpose(0, 2, 1) @ (pi @ C))
        B = (N1 + eps) / (N1 + N0 + 2.0 * eps)
        C = 1.0 - B
        pi = counts + eps
        pi /= pi.sum(axis=2, keepdims=True)
        obj, P1, P0 = objective(pi, B, C)
        # each row's checks on Python floats: the same arithmetic, and cheaper
        # than array operations on a handful of restarts
        ends = [
            "error" if o < p - 1e-6 else "tolerance" if abs(o - p) < tol * (1.0 + abs(o)) else None
            for o, p in zip(obj.tolist(), prev.tolist())
        ]
        if any(ends):
            for k, end in enumerate(ends):
                if end == "error":
                    out[live[k]] = (
                        f"EM objective decreased from {prev[k]} to {obj[k]} at iteration {it}"
                    )
                elif end:
                    leave(k, end, obj[k])
            keep = [end is None for end in ends]
            live, pi, B, C, P1, P0, prev = (a[keep] for a in (live, pi, B, C, P1, P0, obj))
            if not live.size:
                break
        else:
            prev = obj
    for k in range(live.size):
        leave(k, "cap", prev[k])
    for fit in out:  # what a loop over the restarts would raise, or return
        if isinstance(fit, str):
            raise FitError(fit)
    return max(out, key=lambda fit: fit.objective)  # the first best restart


@dataclass
class LatentSpaceFit(FitReport, Saved):
    """Positions and intercept of a distance model for directed edges;
    positions[k] belongs to the k-th node in sorted-id order."""

    positions: np.ndarray
    alpha: float


ALPHA_CAP = 30.0
LATENT_GRAD_TOL = 1e-5


def _pair_distances(z, iu, ju):
    """Euclidean distance between rows iu[p] and ju[p] of z for each pair p,
    with 1e-18 under the root.

    The squares are summed one coordinate at a time, left to right: for
    fewer than 8 coordinates that is the order of numpy's own reduce over
    the last axis, so the bits are the same at a fraction of the cost. From
    8 on numpy sums pairwise, so its reduce is kept there.
    """
    sq = z.take(iu, axis=0)
    sq -= z.take(ju, axis=0)
    sq *= sq
    d2 = functools.reduce(np.add, sq.T) if z.shape[1] < 8 else np.sum(sq, axis=1)
    d2 += 1e-18
    return np.sqrt(d2, out=d2)


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
    each accepted point's distances and margins alpha - d for its
    gradient, and stops at "tolerance" once every gradient entry is below
    LATENT_GRAD_TOL; best of `starts` random starts by penalized
    objective, whose report is the fit's. Empty and complete graphs, and a
    single node, get a closed-form fit that stops as "degenerate": all
    positions at the origin and alpha at -+ALPHA_CAP (0 for one node).

    Distances and margins are symmetric, so each is computed once per
    unordered pair i < j (``_pair_distances``), as are the sigmoid of the
    gradient and the one exp and log1p behind both of a pair's log terms.
    The two cells of each pair then get their own log term and residual,
    and one ``take`` puts those into the (n, n) layout before any sum, so
    every sum runs over the same array, in the same order, as over the
    full matrices, and every float is the same.
    """
    n = len(net.nodes)
    if n == 0:
        raise ValueError("cannot fit a latent space on an empty node set")
    n_dyads = n * (n - 1)

    Y = net.adjacency
    n_edges = int(Y.sum())

    # `cells` holds one value per cell off the diagonal, pair by pair (i < j):
    # every cell (i, j), then every cell (j, i), then the diagonal's 0.0;
    # cells.take(cells_at) lays it out as the (n, n) matrix.
    iu, ju = np.triu_indices(n, 1)
    P = iu.size
    cells_at = np.full((n, n), 2 * P)
    cells_at[iu, ju] = np.arange(P)
    cells_at[ju, iu] = np.arange(P, 2 * P)
    cells = np.zeros(2 * P + 1)
    sides = cells[: 2 * P].reshape(2, P)
    Y_sides = np.stack((Y[iu, ju], Y[ju, iu]))
    sgn_sides = 1.0 - 2.0 * Y_sides  # -1 at the edges

    def loglik(mu):
        """Log likelihood of the edges under P(i->j) = sigmoid(m), m = mu at
        each pair: the sum of -logaddexp(0, -+m) over the cells off the
        diagonal, -+ as the cell is an edge or not. numpy's logaddexp(0, s)
        is max(s, 0) + logaddexp(0, -|s|) bit for bit, so the two cells of
        a pair share their second term."""
        t = np.logaddexp(0.0, -np.abs(mu))
        np.multiply(sgn_sides, mu, out=sides)
        np.maximum(sides, 0.0, out=sides)
        np.add(sides, t, out=sides)
        return -cells.take(cells_at).sum()

    if n < 2 or n_edges == 0 or n_edges == n_dyads:
        alpha = 0.0 if n < 2 else (-ALPHA_CAP if n_edges == 0 else ALPHA_CAP)
        z = np.zeros((n, dim))
        ll = float(loglik(np.full(P, alpha)))
        return LatentSpaceFit(z, alpha, stop="degenerate", n_iter=0, objective=ll)

    def value(x):
        z, alpha = x
        du = _pair_distances(z, iu, ju)
        mu = alpha - du
        return -float(loglik(mu) - tau * (z**2).sum()), (du, mu)

    def gradient(x, aux):
        z, _ = x
        du, mu = aux
        # E = Y - sigmoid(m) off the diagonal, with m clipped to +-500
        p = np.minimum(np.maximum(mu, -500.0), 500.0)
        np.negative(p, out=p)
        np.exp(p, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)
        np.subtract(Y_sides, p, out=sides)
        E = cells.take(cells_at)  # 0.0 on the diagonal, not -0.0: the same sum
        # S = (E + E.T) / d, 0 on the diagonal
        s = sides[0] + sides[1]
        s /= du
        sides[:] = s
        S = cells.take(cells_at)
        return (S.sum(axis=1)[:, None] * z - S @ z) + 2.0 * tau * z, -float(E.sum())

    def project(x):
        return x[0], min(max(x[1], -ALPHA_CAP), ALPHA_CAP)

    density = n_edges / n_dyads
    alpha0 = float(np.clip(np.log(density / (1.0 - density)), -ALPHA_CAP, ALPHA_CAP))

    best = None
    for s in range(starts):
        rng = np.random.default_rng(seed_for(seed, "latent-start", s))
        x = (rng.normal(0.0, 1.0, size=(n, dim)), alpha0)
        (z, alpha), v, stop, it = descend(
            x, value(x), value, gradient, 0.1, max_iter, LATENT_GRAD_TOL, project
        )
        if best is None or -v > best.objective:
            best = LatentSpaceFit(z, alpha, stop=stop, n_iter=it, objective=-v)
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
    """The three fits of one window, each positional in ``nodes``, the
    window's sorted node tuple."""

    nodes: tuple
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
    return LatentBundle(
        nodes=net.nodes, partition=partition, mmsbm=mmsbm, latent=latent, content_hash=chash
    )


# Raised by every change to latent fit results or to the bundle format, so
# that a persistent cache never serves bundles of another version.
BUNDLE_VERSION = 3


class BundleCache:
    """Memoizes latent bundles by (BUNDLE_VERSION, window content, config,
    master seed).

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
        key = (f"v{BUNDLE_VERSION}", net.content_hash(), config.fingerprint(), int(master_seed))
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
        if path:  # a temporary file of this writer's own, so writers never collide
            tmp = f"{path}.{os.urandom(8).hex()}.tmp"
            with open(tmp, "x") as fh:
                try:
                    json.dump(bundle.to_json(), fh)
                except BaseException:
                    os.unlink(tmp)
                    raise
            os.replace(tmp, path)
        return bundle
