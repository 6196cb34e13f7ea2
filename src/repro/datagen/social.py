"""Synthetic social graph with homophily.

Friendships in real social networks correlate with geography and
shared interests; both correlations matter here because the paper's
collaborative-filtering baseline features propagate participation
signals along edges ("information propagated from friends' activity
data can also be seen in work/school information", Section 5.2).

The builder samples, per user, a log-normal friend budget and fills it
with probability ∝ exp(topic affinity · w_topic + same-city bonus),
then symmetrizes.  The result is the CSR structure of the symmetric
adjacency, as two numpy arrays: ``indices[indptr[u]:indptr[u + 1]]``
holds user ``u``'s friends in ascending order.  Building it and
summarising it take numpy alone; there is no sparse-matrix library.
"""

from __future__ import annotations

import numpy as np

from repro.nn.cosine import unit_rows

__all__ = ["build_friendship_graph", "graph_summary"]


def build_friendship_graph(
    topic_mixtures: np.ndarray,
    city_index: np.ndarray,
    mean_friends: float,
    topic_weight: float,
    city_bonus: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
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
        ``(indptr, indices)``, the CSR structure of the symmetric
        ``(num_users, num_users)`` adjacency: sorted rows, no
        self-loops, each friendship once per direction.
    """
    num_users = topic_mixtures.shape[0]
    if num_users < 2:
        return np.zeros(num_users + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)

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
    return _symmetric_csr(rows, np.concatenate(chosen), num_users)


def _symmetric_csr(
    rows: np.ndarray, cols: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the undirected graph whose edges are the
    picks ``rows[i]``–``cols[i]``: both directions of every pick as one
    sorted key row·n + column, so a pair picked twice or from both ends
    is one edge."""
    keys = np.unique(np.concatenate((rows * num_nodes + cols, cols * num_nodes + rows)))
    rows, indices = np.divmod(keys, num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, indices


def graph_summary(adjacency: tuple[np.ndarray, np.ndarray]) -> dict[str, float]:
    """Basic structural statistics, useful for dataset documentation.

    ``clustering`` is the mean local clustering coefficient over all
    nodes (0 for degree < 2).  It is summed in node order with the
    builtin ``sum``: that order and precision made the ``graph_stats``
    the world goldens (``tests/golden/worlds.json``) pin.  *adjacency*
    is ``(indptr, indices)`` as :func:`build_friendship_graph` returns
    it: symmetric, sorted rows.
    """
    indptr, indices = adjacency
    num_nodes = indptr.size - 1
    if not num_nodes:
        return dict.fromkeys(
            ("num_nodes", "num_edges", "mean_degree", "max_degree",
             "clustering", "num_components"),
            0.0,
        )
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(num_nodes), degrees)
    # Every triangle u < w < x once: from each edge u–w with u < w, the
    # wedges u–w–x over the tail of w's sorted row (x > w), closed when
    # u·n + x is the key of an edge u–x.  The keys are sorted, as the
    # rows are.  A node on t triangles closes 2t of its neighbour pairs.
    upper = rows < indices
    lows, highs = rows[upper], indices[upper]
    keys = lows * num_nodes + highs
    fan = np.bincount(lows, minlength=num_nodes)[highs]
    skip = np.cumsum(fan) - fan
    ends = indices[np.repeat(indptr[highs + 1] - fan - skip, fan) + np.arange(fan.sum())]
    wedge_lows = np.repeat(lows, fan)
    wedges = wedge_lows * num_nodes + ends
    shut = keys[np.minimum(np.searchsorted(keys, wedges), keys.size - 1)] == wedges
    corners = (wedge_lows[shut], np.repeat(highs, fan)[shut], ends[shut])
    closed = 2 * np.bincount(np.concatenate(corners), minlength=num_nodes)
    pairs = degrees * (degrees - 1)
    local = np.zeros(num_nodes)
    np.divide(closed, pairs, out=local, where=pairs > 0)
    # Each node takes the lowest label among itself and its neighbours,
    # then its label's label, until nothing moves: a component's nodes
    # all end on its lowest node, the one labelled itself.
    labels = np.arange(num_nodes)
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, rows, labels[indices])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    num_components = np.count_nonzero(labels == np.arange(num_nodes))
    return {
        "num_nodes": float(num_nodes),
        "num_edges": float(indices.size // 2),
        "mean_degree": float(np.mean(degrees)),
        "max_degree": float(degrees.max()),
        "clustering": sum(local.tolist()) / num_nodes,
        "num_components": float(num_components),
    }
