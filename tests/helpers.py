"""Shared test utilities: tiny graph builders and independent oracles.

Everything here is deliberately written from scratch (loops and dicts,
no reuse of library internals) so that agreement between a library
routine and its oracle is meaningful evidence.
"""

import math
from collections import Counter

import numpy as np

from dyadcast import (
    CommunityPartition, EventPanel, LaggedNetwork, LatentConfig, LatentSpaceFit,
)
from dyadcast.learners import COEF_CAP


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
