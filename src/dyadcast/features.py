"""Dyadic statistics computed from a lagged network.

The network statistics are whole-matrix expressions over the window's
adjacency A, indexed at the dyads' positions in the window (`Dyads.at`,
one lookup per node). The similarity indices (Adamic & Adar 2003;
Liben-Nowell & Kleinberg 2007) treat the network as undirected,
U = (A + Aᵀ) > 0: a node's neighbours are its in- and out-neighbours,
never the node itself, since self-initiations are rejected at ingestion.
Any common neighbour of a dyad therefore has undirected degree at least
2, keeping the Adamic-Adar logarithm positive.

Sums over nodes use ``np.einsum``, never BLAS, so they run in sorted-node
order whatever the thread count, and the columns are the same in every
process.
"""

from __future__ import annotations

import numpy as np

from .store import Dyads, LaggedNetwork

# Column order of the endogenous block, as emitted by feature_block.
ENDOGENOUS_FEATURE_NAMES = (
    "memory",
    "flow",
    "common-combatants",
    "adamic-adar",
    "jaccard",
    "common-community",
    "mmsbm-prob",
    "latent-distance",
)


def feature_block(
    net: LaggedNetwork, dyads: Dyads, bundle, exclude_focal_flow: bool = False
) -> np.ndarray:
    """The eight endogenous statistics of each pair of ``dyads``.

    Columns follow ENDOGENOUS_FEATURE_NAMES; row k is pair k of ``dyads``:

    * memory: 1 if the directed edge i->j occurred in the window;
    * flow: binary out-degree of i times binary in-degree of j. The focal
      edge counts on both sides unless exclude_focal_flow removes it;
    * common-combatants: shared undirected neighbours of i and j;
    * adamic-adar: shared neighbours k weighted by 1/ln(deg k);
    * jaccard: shared neighbours over the union of both neighbour sets,
      each stripped of the other dyad member; 0 when the union is empty.

    bundle carries the latent-structure fits (community partition, block
    model, latent space) already computed on this same network, each read
    by position at the dyads' ``net.index`` rows; they fill the last three
    columns (mmsbm-prob per dyad: any vector form of ``pi[i] @ B @ pi[j]``
    rounds differently). A pair that is not two distinct nodes of the
    window, or a bundle whose nodes are not the window's, raises ValueError.
    """
    I, J, known = dyads.at(net.index)
    if not known.all() or np.any(I == J):
        raise ValueError("dyadic statistics need two distinct nodes of the window")
    if bundle.nodes != net.nodes:
        raise ValueError("the latent bundle was fitted on a different node set")
    A = net.adjacency
    U = np.maximum(A, A.T)
    deg = U.sum(axis=1)
    w = np.where(deg >= 2, 1.0 / np.log(np.maximum(deg, 2.0)), 0.0)
    memory = A[I, J]
    out_deg = A.sum(axis=1)[I]
    in_deg = A.sum(axis=0)[J]
    if exclude_focal_flow:
        out_deg = out_deg - memory
        in_deg = in_deg - memory
    common = np.einsum("ik,jk->ij", U, U)[I, J]
    union = deg[I] + deg[J] - 2.0 * U[I, J] - common

    out = np.empty((len(I), len(ENDOGENOUS_FEATURE_NAMES)))
    out[:, 0] = memory
    out[:, 1] = out_deg * in_deg
    out[:, 2] = common
    out[:, 3] = np.einsum("ik,k,jk->ij", U, w, U)[I, J]
    out[:, 4] = np.divide(common, union, out=np.zeros(len(I)), where=union > 0)
    community = np.array(bundle.partition.labels)
    out[:, 5] = community[I] == community[J]
    pi, B = bundle.mmsbm.pi, bundle.mmsbm.B
    sends = [pi[a] @ B for a in range(len(pi))]  # each node's pi[a] @ B, once
    out[:, 6] = [float(sends[a] @ pi[b]) for a, b in zip(I.tolist(), J.tolist())]
    Z = bundle.latent.positions
    out[:, 7] = np.sqrt(np.sum((Z[I] - Z[J]) ** 2, axis=1))
    return out
