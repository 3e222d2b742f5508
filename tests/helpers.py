"""Shared test utilities: tiny graph builders and independent oracles.

Everything here is deliberately written from scratch (loops and dicts,
no reuse of library internals) so that agreement between a library
routine and its oracle is meaningful evidence.
"""

import heapq
import math
from collections import Counter

import numpy as np

from dyadcast import (
    CommunityPartition, EventPanel, FitError, FittedModel, LaggedNetwork, LatentConfig,
    LatentSpaceFit, MMSBMFit, TrainingSet,
)
from dyadcast.codec import Count, NonNegative, Positive
from dyadcast.latent import ALPHA_CAP, LATENT_GRAD_TOL, MMSBM_EPS, modularity
from dyadcast.learners import COEF_CAP, _require_both_classes, nn_loss_and_grads
from dyadcast.seeding import seed_for


def make_net(edges, nodes=(), window=(1, 1)):
    edges = frozenset(tuple(e) for e in edges)
    node_set = set(nodes)
    for i, j in edges:
        node_set.add(i)
        node_set.add(j)
    return LaggedNetwork(window=window, edges=edges, nodes=frozenset(node_set))


def make_panel(events, registry=None):
    """events: iterable of (sender, receiver, period)."""
    events = tuple(events)
    if registry is None:
        registry = EventPanel.infer_registry(events)
    return EventPanel(events=events, registry=registry)


def tiny_latent_config():
    """Small iteration budgets: plenty for toy graphs, fast in loops."""
    return LatentConfig(
        walk_length=3,
        mmsbm_k=2,
        mmsbm_restarts=2,
        mmsbm_max_iter=60,
        mmsbm_tol=1e-6,
        latent_dim=2,
        latent_tau=0.1,
        latent_starts=1,
        latent_max_iter=60,
    )


class StubMMSBM:
    def __init__(self, probs):
        self.probs = probs

    def prob(self, i, j):
        return self.probs[(i, j)]


class StubBundle:
    """Hand-specified latent fits, for pinning column placement: community
    labels and latent positions per node, block-model probabilities per
    dyad."""

    def __init__(self, labels, probs, positions):
        nodes = tuple(sorted(positions))
        self.partition = CommunityPartition(labels, modularity=0.0, walk_length=1)
        self.mmsbm = StubMMSBM(probs)
        self.latent = LatentSpaceFit(
            nodes, np.array([positions[n] for n in nodes], dtype=float),
            alpha=0.0, objective=0.0, converged=True, degenerate=False,
        )


# ------------------------------------------------------ network features
#
# Per-dyad oracles for the network columns of feature_block, computed from
# neighbour sets with no matrix algebra.

def _neighbours(net):
    """(out-neighbours, in-neighbours, undirected neighbours) per node."""
    out_nb = {n: set() for n in net.nodes}
    in_nb = {n: set() for n in net.nodes}
    for i, j in net.edges:
        out_nb[i].add(j)
        in_nb[j].add(i)
    und_nb = {n: (out_nb[n] | in_nb[n]) - {n} for n in net.nodes}
    return out_nb, in_nb, und_nb


def _check_dyad(i, j):
    if i == j:
        raise ValueError(f"dyadic statistic undefined on the self-pair ({i},{j})")


def memory(net, i, j):
    """1 if the focal directed edge occurred anywhere in the window."""
    _check_dyad(i, j)
    return 1.0 if (i, j) in net.edges else 0.0


def flow(net, i, j, exclude_focal=False):
    """Out-degree of the sender times in-degree of the receiver; with
    exclude_focal the focal edge is removed from both counts."""
    _check_dyad(i, j)
    out_nb, in_nb, _ = _neighbours(net)
    out_d, in_d = len(out_nb[i]), len(in_nb[j])
    if exclude_focal and (i, j) in net.edges:
        out_d -= 1
        in_d -= 1
    return float(out_d * in_d)


def common_combatants(net, i, j):
    """Count of shared undirected neighbours other than the dyad members."""
    _check_dyad(i, j)
    und = _neighbours(net)[2]
    return float(len((und[i] & und[j]) - {i, j}))


def adamic_adar(net, i, j):
    """Shared neighbours weighted by 1/ln(undirected degree), summed in
    sorted-id order."""
    _check_dyad(i, j)
    und = _neighbours(net)[2]
    shared = sorted((und[i] & und[j]) - {i, j})
    return float(sum(1.0 / math.log(len(und[k])) for k in shared))


def jaccard(net, i, j):
    """Shared neighbours over the neighbour union, both sets stripped of
    the dyad members; 0 when the union is empty."""
    _check_dyad(i, j)
    und = _neighbours(net)[2]
    ni, nj = und[i] - {j}, und[j] - {i}
    union = ni | nj
    return len(ni & nj) / len(union) if union else 0.0


# ---------------------------------------------------------------- metrics

def mann_whitney_auc(scores, labels):
    """Pairwise concordance with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    gt = float((pos[:, None] > neg[None, :]).sum())
    eq = float((pos[:, None] == neg[None, :]).sum())
    return (gt + 0.5 * eq) / (len(pos) * len(neg))


def threshold_rates(scores, labels, threshold):
    """(precision, recall, fpr) when a score >= threshold is predicted
    positive, by counting. Precision with nothing predicted positive is 1;
    a rate with an empty denominator is NaN."""
    tp = fp = fn = tn = 0
    for s, y in zip(scores, labels):
        if s >= threshold:
            tp, fp = tp + (y == 1), fp + (y != 1)
        else:
            fn, tn = fn + (y == 1), tn + (y != 1)
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = math.nan if tp + fn == 0 else tp / (tp + fn)
    fpr = math.nan if fp + tn == 0 else fp / (fp + tn)
    return precision, recall, fpr


def average_precision_oracle(scores, labels):
    """Group-by-distinct-score average precision, dict-and-loop style.

    Every positive in a tied group is credited the precision at the end
    of that group.
    """
    pairs = sorted(zip(scores, labels), key=lambda t: -t[0])
    total_pos = sum(1 for _, y in pairs if y == 1)
    tp = 0
    seen = 0
    total = 0.0
    idx = 0
    n = len(pairs)
    while idx < n:
        j = idx
        group_pos = 0
        while j < n and pairs[j][0] == pairs[idx][0]:
            group_pos += int(pairs[j][1] == 1)
            j += 1
        tp += group_pos
        seen = j
        total += group_pos * (tp / seen)
        idx = j
    return total / total_pos


def expected_ap_random(n, p):
    """Exact mean average precision when p positives land uniformly among
    n distinct ranks."""
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    return (p - 1) / (n - 1) + (n - p) * harmonic / (n * (n - 1))


# ---------------------------------------------------------- elastic net

def elastic_net_residual_oracle(Z, y, lam, max_outer=100):
    """Residual-form coordinate descent for the elastic-net objective

        -loglik + lam * (sum|beta| + sum(beta^2))

    on a standardized design Z (intercept unpenalized). Each coordinate
    update is computed from the full weighted residual vector, so the
    covariance-form solver in the library can be checked against it.
    Returns (intercept, coef, converged, n_outer, capped_inner), the last
    counting inner loops that stopped at the 1000-sweep cap."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    p = Z.shape[1]
    beta0 = 0.0
    beta = np.zeros(p)
    converged = False
    outer = capped_inner = 0
    for outer in range(1, max_outer + 1):
        eta = beta0 + Z @ beta
        mu = 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        z = eta + (y - mu) / w
        b0_old, b_old = beta0, beta.copy()
        resid = z - beta0 - Z @ beta
        for _ in range(1000):
            delta = 0.0
            for k in range(p):
                resid += Z[:, k] * beta[k]
                rho = float(np.sum(w * Z[:, k] * resid))
                denom = float(np.sum(w * Z[:, k] ** 2)) + 2.0 * lam
                new = np.sign(rho) * max(abs(rho) - lam, 0.0) / denom
                new = float(np.clip(new, -COEF_CAP, COEF_CAP))
                delta = max(delta, abs(new - beta[k]))
                beta[k] = new
                resid -= Z[:, k] * beta[k]
            resid += beta0
            new0 = float(np.sum(w * resid) / np.sum(w))
            delta = max(delta, abs(new0 - beta0))
            beta0 = new0
            resid -= beta0
            if delta < 1e-11:
                break
        else:
            capped_inner += 1
        if max(abs(beta0 - b0_old), float(np.max(np.abs(beta - b_old))) if p else 0.0) < 1e-9:
            converged = True
            break
    return beta0, beta, converged, outer, capped_inner


def elastic_net_objective(Z, y, lam, intercept, coef):
    """Penalized negative log-likelihood minimized by the elastic net."""
    eta = intercept + np.asarray(Z) @ np.asarray(coef)
    nll = float(np.sum(np.logaddexp(0.0, eta) - np.asarray(y) * eta))
    return nll + lam * float(np.sum(np.abs(coef)) + np.sum(np.square(coef)))


# ----------------------------------------------------------- logitboost

def best_stump_oracle(Z, w, z, orders):
    """Weighted least-squares optimal single split, one cut at a time.

    Returns (feature, threshold, left_value, right_value). Ties resolve to
    the lowest feature index, then the lowest threshold. When no feature
    has two distinct values the stump degenerates to the weighted mean
    (feature -1)."""
    total_w = float(w.sum())
    total_wz = float((w * z).sum())
    best = None
    best_gain = -np.inf
    for feat in range(Z.shape[1]):
        order = orders[feat]
        zs = Z[order, feat]
        cw = np.cumsum(w[order])
        cwz = np.cumsum((w * z)[order])
        boundary = np.flatnonzero(zs[1:] > zs[:-1])
        for cut in boundary:
            wl, wzl = cw[cut], cwz[cut]
            wr, wzr = total_w - wl, total_wz - wzl
            if wl <= 0.0 or wr <= 0.0:
                continue
            gain = wzl * wzl / wl + wzr * wzr / wr
            if gain > best_gain + 1e-15:
                best_gain = gain
                thr = 0.5 * (zs[cut] + zs[cut + 1])
                best = (feat, float(thr), float(wzl / wl), float(wzr / wr))
    if best is None:
        mean = total_wz / total_w
        return (-1, 0.0, float(mean), float(mean))
    return best


# ----------------------------------------------------------- partitions

def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] | {first}] + part[k + 1:]
        yield part + [{first}]


def modularity_oracle(n_nodes, und_edges, groups):
    """Newman modularity computed the slow, obvious way."""
    m = len(und_edges)
    if m == 0:
        return 0.0
    deg = Counter()
    for a, b in und_edges:
        deg[a] += 1
        deg[b] += 1
    q = 0.0
    for g in groups:
        within = sum(1 for a, b in und_edges if a in g and b in g)
        total_deg = sum(deg[v] for v in g)
        q += within / m - (total_deg / (2.0 * m)) ** 2
    return q


def best_modularity_partition(n_nodes, und_edges):
    """Exhaustive argmax over all set partitions. Returns (groups, q,
    unique) where groups is a frozenset of frozensets and unique says the
    argmax was strict (beyond 1e-12)."""
    best_q = -np.inf
    best = None
    near = 0
    for part in set_partitions(range(n_nodes)):
        q = modularity_oracle(n_nodes, und_edges, part)
        if q > best_q + 1e-12:
            best_q = q
            best = frozenset(frozenset(g) for g in part)
            near = 1
        elif abs(q - best_q) <= 1e-12:
            near += 1
    return best, best_q, near == 1


def partition_as_groups(labels):
    """{node: label} -> frozenset of frozensets of nodes."""
    groups = {}
    for node, lab in labels.items():
        groups.setdefault(lab, set()).add(node)
    return frozenset(frozenset(g) for g in groups.values())


def _dsigma(size1, phat1, size2, phat2, d, n):
    r2 = float(np.sum((phat1 - phat2) ** 2 / d))
    return (size1 * size2) / (size1 + size2) / n * r2


def walktrap_oracle(net, walk_length=4):
    """Reference for ``walktrap``: the merge loop only records the
    dendrogram, and a second pass replays it over member sets to score the
    modularity of every stage. Agglomerative short-random-walk clustering,
    cut at max modularity.

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

    alive = set(range(n))
    ds = {}
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
            heapq.heappush(heap, (nv, key[0], key[1]))
        merges.append((a, b, new))

    # replay the merge sequence and keep the stage with max modularity
    members = {k: {k} for k in range(n)}
    und_nb = {k: set() for k in range(n)}
    for a, b in und_edges:
        und_nb[a].add(b)
        und_nb[b].add(a)
    best_stage = 0
    if und_edges:
        m = len(und_edges)
        deg = A.sum(axis=1)
        D = {k: float(deg[k]) for k in range(n)}
        L = {k: 0.0 for k in range(n)}
        q = sum(L[c] / m - (D[c] / (2 * m)) ** 2 for c in members)
        best_q = q
        replay = {k: set(members[k]) for k in range(n)}
        for stage, (a, b, new) in enumerate(merges, start=1):
            small, big = (a, b) if len(replay[a]) <= len(replay[b]) else (b, a)
            between = sum(
                1 for u in replay[small] for v in und_nb[u] if v in replay[big]
            )
            q += between / m - 2.0 * (D[a] / (2 * m)) * (D[b] / (2 * m))
            replay[new] = replay.pop(a) | replay.pop(b)
            D[new] = D[a] + D[b]
            if q > best_q + 1e-12:
                best_q = q
                best_stage = stage

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


# ------------------------------------------------------ iterative fits
# The three fits as they were before the latent space and the neural net
# shared ``descent.descend`` and MMSBM reused its objective's edge
# probabilities: hand-written backtracking loops that compute a gradient
# at every trial point and rebuild what the objective already built.

def fit_mmsbm_oracle(
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

    def objective(pi, B):
        P1 = np.clip(pi @ B @ pi.T, 1e-300, 1.0 - 1e-16)
        ll = np.sum(mask * (Y * np.log(P1) + (1.0 - Y) * np.log(1.0 - P1)))
        return ll + eps * np.sum(np.log(pi)) + eps * np.sum(np.log(B) + np.log(1.0 - B))

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed_for(seed, "mmsbm-restart", r))
        pi = rng.dirichlet(np.ones(K), size=n)
        B = rng.uniform(0.1, 0.9, size=(K, K))
        prev = objective(pi, B)
        history = []
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            P1 = np.clip(pi @ B @ pi.T, 1e-300, 1.0 - 1e-16)
            W1 = mask * Y / P1
            W0 = mask * (1.0 - Y) / (1.0 - P1)
            N1 = B * (pi.T @ W1 @ pi)
            N0 = (1.0 - B) * (pi.T @ W0 @ pi)
            counts = pi * (W1 @ (pi @ B.T) + W0 @ (pi @ (1.0 - B).T))
            counts += pi * (W1.T @ (pi @ B) + W0.T @ (pi @ (1.0 - B)))
            B = (N1 + eps) / (N1 + N0 + 2.0 * eps)
            pi = counts + eps
            pi /= pi.sum(axis=1, keepdims=True)
            obj = objective(pi, B)
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


def fit_latent_space_oracle(
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
    Gradient ascent with backtracking step halving, stopping once every
    gradient entry is below LATENT_GRAD_TOL; best of `starts`
    random starts by penalized objective. Empty and complete graphs get a
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

    def dist_matrix(z):
        diff = z[:, None, :] - z[None, :, :]
        return np.sqrt(np.sum(diff**2, axis=2) + 1e-18)

    def objective(z, alpha):
        m = alpha - dist_matrix(z)
        ll = np.sum(mask * (Y * (-np.logaddexp(0.0, -m)) + (1.0 - Y) * (-np.logaddexp(0.0, m))))
        return float(ll - tau * np.sum(z**2))

    def gradients(z, alpha):
        dmat = dist_matrix(z)
        m = alpha - dmat
        p = 1.0 / (1.0 + np.exp(-np.clip(m, -500, 500)))
        E = mask * (Y - p)
        g_alpha = float(E.sum())
        S = (E + E.T) / dmat
        np.fill_diagonal(S, 0.0)
        g_z = -(S.sum(axis=1)[:, None] * z - S @ z) - 2.0 * tau * z
        return g_z, g_alpha

    density = n_edges / n_dyads
    alpha0 = float(np.clip(np.log(density / (1.0 - density)), -ALPHA_CAP, ALPHA_CAP))

    best = None
    for s in range(starts):
        rng = np.random.default_rng(seed_for(seed, "latent-start", s))
        z = rng.normal(0.0, 1.0, size=(n, dim))
        alpha = alpha0
        obj = objective(z, alpha)
        step = 0.1
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            g_z, g_alpha = gradients(z, alpha)
            if max(np.max(np.abs(g_z)), abs(g_alpha)) < LATENT_GRAD_TOL:
                converged = True
                break
            accepted = False
            while step >= 1e-14:
                z_try = z + step * g_z
                a_try = float(np.clip(alpha + step * g_alpha, -ALPHA_CAP, ALPHA_CAP))
                o_try = objective(z_try, a_try)
                if np.isfinite(o_try) and o_try > obj:
                    z, alpha, obj = z_try, a_try, o_try
                    step = min(step * 1.5, 10.0)
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                converged = True
                break
        if best is None or obj > best.objective:
            best = LatentSpaceFit(nodes, z, alpha, obj, converged, False, it)
    return best


def fit_neural_net_oracle(
    train: TrainingSet,
    hidden: Positive,
    decay: NonNegative,
    seed: int = 0,
    max_iter: Count = 2000,
    restarts: Positive = 3,
    grad_tol: NonNegative = 1e-5,
) -> FittedModel:
    """Single-hidden-layer logistic network by full-batch gradient descent
    with backtracking step control; best of `restarts` random starts by
    penalized training loss."""
    _require_both_classes(train.y)
    Z, yv = train.Z, train.y
    p = Z.shape[1]

    best = None
    failed_starts = 0
    for r in range(restarts):
        rng = np.random.default_rng(seed_for(seed, "nn-restart", r))
        W1 = rng.normal(0.0, 1.0 / np.sqrt(max(p, 1)), size=(p, hidden))
        b1 = np.zeros(hidden)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden)
        b2 = 0.0
        loss, g_W1, g_b1, g_w2, g_b2 = nn_loss_and_grads(Z, yv, W1, b1, w2, b2, decay)
        for _ in range(5):
            if np.isfinite(loss):
                break
            W1, w2 = 0.1 * W1, 0.1 * w2
            loss, g_W1, g_b1, g_w2, g_b2 = nn_loss_and_grads(Z, yv, W1, b1, w2, b2, decay)
        if not np.isfinite(loss):
            failed_starts += 1
            continue
        step = 0.01
        converged = False
        for _ in range(max_iter):
            gnorm = max(
                np.max(np.abs(g_W1)) if g_W1.size else 0.0,
                np.max(np.abs(g_b1)),
                np.max(np.abs(g_w2)),
                abs(g_b2),
            )
            if gnorm < grad_tol:
                converged = True
                break
            accepted = False
            while step >= 1e-14:
                trial = (
                    W1 - step * g_W1,
                    b1 - step * g_b1,
                    w2 - step * g_w2,
                    b2 - step * g_b2,
                )
                out = nn_loss_and_grads(Z, yv, *trial, decay)
                if np.isfinite(out[0]) and out[0] < loss:
                    (W1, b1, w2, b2) = trial
                    loss, g_W1, g_b1, g_w2, g_b2 = out
                    step = min(step * 1.5, 10.0)
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                converged = True
                break
        if best is None or loss < best[0]:
            best = (loss, W1, b1, w2, b2, converged)

    if best is None:
        raise FitError("neural net produced non-finite loss from every start")
    loss, W1, b1, w2, b2, converged = best
    diagnostics = {
        "converged": converged,
        "loss": loss,
        "failed_starts": failed_starts,
        "seed": seed,
    }
    return FittedModel(
        kind="neural-net",
        standardizer=train.standardizer,
        params={"W1": W1, "b1": b1, "w2": w2, "b2": float(b2), "hidden": hidden, "decay": decay},
        diagnostics=diagnostics,
    )


# ------------------------------------------------------------- rankings

def rankdata_avg(values):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[order[j]] == values[order[i]]:
            j += 1
        avg = 0.5 * (i + j - 1) + 1.0
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    return ranks


def spearman(x, y):
    rx = rankdata_avg(x)
    ry = rankdata_avg(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))
