"""User, page, event and social-graph generation."""

import numpy as np
import pytest
from scipy import sparse  # the reference CSR, not a runtime dependency

from repro.datagen.config import DataConfig
from repro.datagen.events import generate_events
from repro.datagen.social import _symmetric_csr, build_friendship_graph, graph_summary
from repro.datagen.topics import TOPIC_NAMES, TOPICS, TopicModel
from repro.datagen.users import AGE_BUCKETS, GENDERS, generate_pages, generate_users


@pytest.fixture(scope="module")
def world():
    config = DataConfig.small(seed=5)
    rng = np.random.default_rng(config.seed)
    topic_model = TopicModel()
    pages = generate_pages(topic_model, config, rng)
    users = generate_users(topic_model, pages, config, rng)
    events = generate_events(
        topic_model, config, users.city_centers, config.num_users, rng
    )
    return config, topic_model, pages, users, events


class TestPages:
    def test_counts_and_pure_mixtures(self, world):
        config, topic_model, pages, _, _ = world
        assert len(pages) == config.num_pages
        for page in pages:
            assert np.isclose(page.mixture.sum(), 1.0)
            assert page.mixture.max() == 1.0

    def test_titles_use_topic_words(self, world):
        _, topic_model, pages, _, _ = world
        for page in pages[:20]:
            vocabulary = set(TOPICS[TOPIC_NAMES[page.topic_index]].all_words())
            assert set(page.title.split()).issubset(vocabulary)


class TestUsers:
    def test_population_size_and_attributes(self, world):
        config, _, _, users, _ = world
        assert len(users.users) == config.num_users
        for user in users.users[:20]:
            assert user.categorical["age_bucket"] in AGE_BUCKETS
            assert user.categorical["gender"] in GENDERS
            assert user.categorical["city"].startswith("city_")
            assert config.min_keywords <= len(user.keywords) <= config.max_keywords
            assert len(user.page_ids) == len(user.page_titles)

    def test_mixtures_sparse_and_normalized(self, world):
        config, _, _, users, _ = world
        active = (users.mixtures > 0).sum(axis=1)
        assert np.all(active >= config.min_user_topics)
        assert np.all(active <= config.max_user_topics)
        assert np.allclose(users.mixtures.sum(axis=1), 1.0)

    def test_keywords_come_from_active_topics(self, world):
        _, topic_model, _, users, _ = world
        for index, user in enumerate(users.users[:20]):
            active = np.where(users.mixtures[index] > 0)[0]
            allowed = set()
            for topic in active:
                allowed.update(TOPICS[TOPIC_NAMES[topic]].all_words())
            assert set(user.keywords).issubset(allowed)

    def test_page_subscriptions_prefer_own_topics(self, world):
        """Across the population, subscribed pages match user topics
        far more often than chance."""
        _, topic_model, pages, users, _ = world
        hits = total = 0
        for index, user in enumerate(users.users):
            active = set(np.where(users.mixtures[index] > 0)[0])
            for page_id in user.page_ids:
                total += 1
                if pages[page_id].topic_index in active:
                    hits += 1
        chance = np.mean([(users.mixtures[i] > 0).sum() for i in range(len(users.users))]) / topic_model.num_topics
        assert hits / total > 1.5 * chance

    def test_home_near_city_center(self, world):
        config, _, _, users, _ = world
        for index, user in enumerate(users.users[:20]):
            center = users.city_centers[users.city_index[index]]
            distance = np.linalg.norm(np.asarray(user.home_location) - center)
            assert distance < config.map_size / 2


class TestEvents:
    def test_counts_and_lifespans(self, world):
        config, _, _, _, events = world
        assert len(events.events) == config.num_events
        for event in events.events:
            assert 12.0 <= event.lifespan_hours <= config.max_lifespan_hours
            assert 0.0 <= event.created_at <= config.total_hours

    def test_category_matches_dominant_topic(self, world):
        _, _, _, _, events = world
        for index, event in enumerate(events.events):
            topic = TOPIC_NAMES[events.topic_index[index]]
            assert event.category in TOPICS[topic].categories

    def test_description_word_counts(self, world):
        config, _, _, _, events = world
        for event in events.events[:20]:
            count = len(event.description.split())
            assert config.min_description_words <= count
            assert count <= config.max_description_words

    def test_mixtures_normalized(self, world):
        _, _, _, _, events = world
        assert np.allclose(events.mixtures.sum(axis=1), 1.0)


def friends_of(adjacency, user):
    indptr, indices = adjacency
    return indices[indptr[user]:indptr[user + 1]]


def edge_rows(adjacency):
    """The row of each entry of ``indices``: with it, every edge once
    per direction."""
    indptr, _ = adjacency
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def reference_summary(adjacency):
    """Clustering and component count by per-node set walks: each
    node's closed-neighbour count over its neighbour pairs, then a
    flood fill."""
    num_nodes = adjacency[0].size - 1
    neighbours = [set(friends_of(adjacency, v).tolist()) for v in range(num_nodes)]
    local = []
    for v, around in enumerate(neighbours):
        degree = len(around)
        closed = sum(len(around & neighbours[w]) for w in around)
        local.append(closed / (degree * (degree - 1)) if closed else 0)
    unseen, components = set(range(num_nodes)), 0
    while unseen:
        components += 1
        frontier = [unseen.pop()]
        while frontier:
            reached = neighbours[frontier.pop()] & unseen
            unseen -= reached
            frontier.extend(reached)
    return sum(local) / len(local), float(components)


def scipy_csr(rows, cols, num_nodes):
    """The reference structure: scipy's ``(coo + coo.T).tocsr()`` with
    sorted indices (a pair's entries sum into one; only the structure
    is compared)."""
    directed = sparse.coo_array(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(num_nodes, num_nodes)
    )
    adjacency = (directed + directed.T).tocsr()
    adjacency.sort_indices()
    return adjacency.indptr, adjacency.indices


class TestSocialGraph:
    def test_homophily_same_city_overrepresented(self, rng):
        num_users = 150
        mixtures = rng.dirichlet(np.ones(4), size=num_users)
        city = rng.integers(3, size=num_users)
        adjacency = build_friendship_graph(
            mixtures, city, mean_friends=8, topic_weight=0.0,
            city_bonus=3.0, rng=rng,
        )
        rows, cols = edge_rows(adjacency), adjacency[1]  # each edge once per direction
        assert np.mean(city[rows] == city[cols]) > 0.55  # chance ≈ 1/3

    def test_no_self_loops_and_undirected(self, rng):
        mixtures = rng.dirichlet(np.ones(3), size=50)
        city = rng.integers(2, size=50)
        adjacency = build_friendship_graph(
            mixtures, city, mean_friends=5, topic_weight=1.0,
            city_bonus=1.0, rng=rng,
        )
        indptr, indices = adjacency
        rows = edge_rows(adjacency)
        assert indptr.size == 51 and indptr[0] == 0 and indptr[-1] == indices.size
        assert not np.any(rows == indices)
        edges = set(zip(rows.tolist(), indices.tolist()))
        assert edges == {(v, u) for u, v in edges}
        assert len(edges) == indices.size  # 0/1: no pair stored twice
        for user in range(50):
            friends = friends_of(adjacency, user)
            assert np.all(np.diff(friends) > 0)
            assert friends.size >= 1  # every budget is at least one pick

    def test_summary_keys(self, rng):
        mixtures = rng.dirichlet(np.ones(3), size=30)
        adjacency = build_friendship_graph(
            mixtures, np.zeros(30, dtype=int), mean_friends=4,
            topic_weight=1.0, city_bonus=0.0, rng=rng,
        )
        summary = graph_summary(adjacency)
        assert summary["num_nodes"] == 30
        assert summary["mean_degree"] > 0
        assert summary["num_edges"] == adjacency[1].size / 2

    def test_summary_on_a_known_graph(self):
        # Triangle 0-1-2, pendant 3 on 2, isolated 4, edge 5-6.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6)]
        rows, cols = (np.array(ends) for ends in zip(*edges))
        summary = graph_summary(_symmetric_csr(rows, cols, 7))
        assert summary == {
            "num_nodes": 7.0,
            "num_edges": 5.0,
            "mean_degree": 10 / 7,
            "max_degree": 3.0,
            "clustering": (1 + 1 + 1 / 3) / 7,
            "num_components": 3.0,
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustering_and_components_equal_the_set_walk(self, seed):
        rng = np.random.default_rng(seed)
        num_users = 120
        adjacency = build_friendship_graph(
            rng.dirichlet(np.ones(5), size=num_users),
            rng.integers(3, size=num_users),
            mean_friends=3, topic_weight=2.0, city_bonus=1.5, rng=rng,
        )
        summary = graph_summary(adjacency)
        clustering, components = reference_summary(adjacency)
        assert summary["clustering"] == clustering  # bit for bit
        assert summary["num_components"] == components


class TestCsrParity:
    """The numpy CSR structure equals scipy's on the same picks."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_picks_equal_scipy(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(4, 60))
        size = int(rng.integers(1, 3 * num_nodes))
        # Few nodes per pick: repeated picks and picks from both ends
        # are common; some nodes are picked by no one (isolated).
        rows = rng.integers(num_nodes // 2 + 1, size=size)
        cols = rng.integers(num_nodes // 2 + 1, size=size)
        keep = rows != cols
        rows = np.concatenate((rows[keep], rows[keep][:5]))  # repeated picks
        cols = np.concatenate((cols[keep], cols[keep][:5]))
        rows, cols = np.concatenate((rows, cols[:5])), np.concatenate((cols, rows[:5]))  # mutual
        indptr, indices = _symmetric_csr(rows, cols, num_nodes)
        expected_indptr, expected_indices = scipy_csr(rows, cols, num_nodes)
        np.testing.assert_array_equal(indptr, expected_indptr)
        np.testing.assert_array_equal(indices, expected_indices)
        assert np.any(np.diff(indptr) == 0)  # isolated nodes covered

    @pytest.mark.parametrize("num_users", [0, 1])
    def test_fewer_than_two_users(self, num_users):
        rng = np.random.default_rng(0)
        indptr, indices = build_friendship_graph(
            rng.dirichlet(np.ones(3), size=num_users), np.zeros(num_users, dtype=int),
            mean_friends=3, topic_weight=1.0, city_bonus=1.0, rng=rng,
        )
        expected_indptr, expected_indices = scipy_csr([], [], num_users)
        np.testing.assert_array_equal(indptr, expected_indptr)
        np.testing.assert_array_equal(indices, expected_indices)
        summary = graph_summary((indptr, indices))
        assert summary["num_nodes"] == num_users
        assert summary["num_edges"] == summary["clustering"] == 0.0
        assert summary["num_components"] == num_users
