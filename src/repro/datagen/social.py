"""Synthetic social graph with homophily.

Friendships in real social networks correlate with geography and
shared interests; both correlations matter here because the paper's
collaborative-filtering baseline features propagate participation
signals along edges ("information propagated from friends' activity
data can also be seen in work/school information", Section 5.2).

The builder samples, per user, a log-normal friend budget and fills it
with probability ∝ exp(topic affinity · w_topic + same-city bonus),
then symmetrizes.  The result is a symmetric CSR adjacency matrix:
row ``u`` of ``indices`` holds user ``u``'s friends in ascending order.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.nn.cosine import unit_rows

__all__ = ["build_friendship_graph", "graph_summary"]


def build_friendship_graph(
    topic_mixtures: np.ndarray,
    city_index: np.ndarray,
    mean_friends: float,
    topic_weight: float,
    city_bonus: float,
    rng: np.random.Generator,
) -> sparse.csr_array:
    """Sample an undirected friendship graph over users.

    Args:
        topic_mixtures: ``(num_users, num_topics)`` ground-truth
            interest mixtures.
        city_index: ``(num_users,)`` city assignment per user.
        mean_friends: expected degree before symmetrization.
        topic_weight: weight of topic-affinity homophily.
        city_bonus: log-odds bonus for same-city pairs.
        rng: random generator.

    Returns:
        The ``(num_users, num_users)`` 0/1 adjacency, symmetric, with
        sorted indices and no self-loops.
    """
    num_users = topic_mixtures.shape[0]
    if num_users < 2:
        return sparse.csr_array((num_users, num_users), dtype=np.int64)

    unit = unit_rows(topic_mixtures, eps=0.0)

    # Per-user friend budgets: log-normal, heavy-tailed like real
    # degree distributions, at least 1.
    budgets = np.maximum(
        1,
        rng.lognormal(
            mean=np.log(mean_friends), sigma=0.6, size=num_users
        ).astype(int),
    )
    budgets = np.minimum(budgets, num_users - 1)

    chosen = []
    for user in range(num_users):
        scores = topic_weight * (unit @ unit[user])
        scores += city_bonus * (city_index == city_index[user])
        scores[user] = -np.inf
        # Convert to sampling probabilities via softmax.
        scores -= scores.max()
        probabilities = np.exp(scores)
        probabilities /= probabilities.sum()
        chosen.append(
            rng.choice(
                num_users, size=budgets[user], replace=False, p=probabilities
            )
        )
    rows = np.repeat(np.arange(num_users), budgets)
    cols = np.concatenate(chosen)
    # Both directions of every pick; a pair picked from both ends sums
    # to 2 and is clipped back to one edge.
    directed = sparse.coo_array(
        (np.ones(rows.size, dtype=np.int64), (rows, cols)),
        shape=(num_users, num_users),
    )
    adjacency = (directed + directed.T).tocsr()
    adjacency.data[:] = 1
    adjacency.sort_indices()
    return adjacency


def graph_summary(adjacency: sparse.csr_array) -> dict[str, float]:
    """Basic structural statistics, useful for dataset documentation.

    ``clustering`` is the mean local clustering coefficient over all
    nodes (0 for degree < 2).  It is summed in node order with the
    builtin ``sum``: that order and precision made the ``graph_stats``
    the world goldens (``tests/golden/worlds.json``) pin.
    """
    num_nodes = adjacency.shape[0]
    if not num_nodes:
        return dict.fromkeys(
            ("num_nodes", "num_edges", "mean_degree", "max_degree",
             "clustering", "num_components"),
            0.0,
        )
    degrees = np.diff(adjacency.indptr)
    # Row v of (A @ A) ∘ A counts, per neighbour w, the common
    # neighbours of v and w: twice the triangles through v.
    closed = ((adjacency @ adjacency) * adjacency).sum(axis=1)
    pairs = degrees * (degrees - 1)
    local = np.zeros(num_nodes)
    np.divide(closed, pairs, out=local, where=pairs > 0)
    num_components, _ = connected_components(adjacency, directed=False)
    return {
        "num_nodes": float(num_nodes),
        "num_edges": float(adjacency.nnz // 2),
        "mean_degree": float(np.mean(degrees)),
        "max_degree": float(degrees.max()),
        "clustering": sum(local.tolist()) / num_nodes,
        "num_components": float(num_components),
    }
