"""The drift verdict on a trained model, through the serving runner.

The bundle is the one CI's serve-smoke job serves: ``generate --scale
small --seed 0`` then ``train`` with its defaults.  Traffic is random
users asking for ``top_k`` 10 over the whole pool, posted through
``ServingServer``'s flush runner eight requests at a time (so each
flush is one ``rank_events_batch``), and the two drift monitors are
polled after every flush: ``ServingMonitors.collect`` into a fresh
registry, judged by the stock drift SLOs.

* Stationary traffic (seeds 0–7, 1 000 requests each) never breaches,
  whether the pool is fixed or an event is published into it: events
  are transient (the paper's §1), so a pool that changes size is the
  normal state of a live server, not a drift.
* Each seeded drift — an untrained model's weights, events of another
  world, noise on the user tower — breaches ``score_drift_ok`` within
  256 requests of the switch, in the same service and monitors.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.cli import main
from repro.core.model import JointUserEventModel
from repro.core.persistence import load_model_bundle
from repro.core.service import RepresentationService
from repro.datagen.config import DataConfig
from repro.datagen.dataset import EventRecDataset, build_dataset
from repro.obs.health import default_serving_slos, evaluate
from repro.obs.registry import MetricsRegistry, use_registry
from repro.serving.server import ServingServer, _RecommendWork

FLUSH = 8  # requests per flush, and between two polls
TOP_K = 10
DRIFT_SLOS = tuple(
    spec for spec in default_serving_slos() if spec.metric == "repro_drift_ok"
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """``(bundle path, users, events)`` of CI serve-smoke's world and bundle."""
    root = tmp_path_factory.mktemp("served-drift")
    world, bundle = str(root / "world.json.gz"), str(root / "bundle")
    assert main(["generate", "--scale", "small", "--seed", "0", "--out", world]) == 0
    assert main(["train", "--dataset", world, "--bundle", bundle]) == 0
    dataset = EventRecDataset.load(world)
    users = sorted(dataset.users, key=lambda user: user.user_id)
    events = sorted(dataset.events, key=lambda event: event.event_id)
    return bundle, users, events


def serve(bundle, users, events):
    """A warmed service on a fresh copy of the bundle, as ``serve`` builds it."""
    service = RepresentationService(load_model_bundle(bundle))
    service.warm(users, events)
    return service


def breached(service):
    """The drift SLOs in breach right now."""
    registry = MetricsRegistry()
    service.monitors.collect(registry)
    return evaluate(DRIFT_SLOS, registry.snapshot()).breached()


def traffic(server, rng, users):
    """One flush of ``FLUSH`` random users, ``top_k`` 10, whole pool."""
    picks = rng.integers(0, len(users), FLUSH).tolist()
    rankings = server._recommend_batch(
        [_RecommendWork(users[pick], None, None, TOP_K) for pick in picks]
    )
    assert [len(ranking) for ranking in rankings] == [TOP_K] * FLUSH


@pytest.mark.parametrize("seed", range(8))
def test_stationary_traffic_never_breaches(trained, seed):
    bundle, users, events = trained
    with use_registry(MetricsRegistry()):
        service = serve(bundle, users, events)
        server = ServingServer(service, users, events)
        rng = np.random.default_rng(seed)
        for flush in range(1000 // FLUSH):
            traffic(server, rng, users)
            assert breached(service) == [], (flush + 1) * FLUSH
        assert service.monitors.scores.observed == 1000


@functools.cache
def other_world():
    """Events of world seed 7, in id order, under ids the index never held."""
    other = build_dataset(DataConfig.small(seed=7)).events
    return tuple(
        dataclasses.replace(event, event_id=event.event_id + 100_000)
        for event in sorted(other, key=lambda event: event.event_id)
    )


@pytest.mark.parametrize("seed", range(8))
def test_publishing_an_event_never_breaches(trained, seed):
    """After 512 requests one event of world seed 7 is refreshed in
    under a fresh id and joins the pool, as a newly created event does."""
    bundle, users, events = trained
    with use_registry(MetricsRegistry()):
        service = serve(bundle, users, events)
        server = ServingServer(service, users, events)
        rng = np.random.default_rng(seed)
        for flush in range(1000 // FLUSH):
            if flush == 512 // FLUSH:
                published = list(other_world()[:1])
                service.refresh_events(published)
                server = ServingServer(service, users, events + published)
            traffic(server, rng, users)
            assert breached(service) == [], (flush + 1) * FLUSH
        assert len(service.index) == len(events) + 1


def untrained_weights(service, users, events):
    """The untrained model's weights loaded, then everything re-warmed."""
    model = service.model
    model.store.load_state_dict(
        JointUserEventModel(model.config, model.encoder).store.state_dict()
    )
    service.cache.clear()
    service.rebuild_index()
    service.warm(users, [])
    return events


def other_world_events(service, users, events):
    """Events of world seed 7, refreshed in under ids the index never held."""
    moved = list(other_world())
    service.refresh_events(moved)
    return moved


def user_tower_noise(service, users, events):
    """Gaussian noise of half each user-tower tensor's spread, then the
    users re-announced with ``warm``."""
    rng = np.random.default_rng(99)
    for parameter in service.model.store:
        if parameter.name.startswith("user."):
            parameter.value += rng.normal(
                0.0, 0.5 * parameter.value.std(), parameter.value.shape
            )
    for user in users:
        service.cache.invalidate(service.USER_KIND, user.user_id)
    service.warm(users, [])
    return events


@pytest.mark.parametrize(
    "drift", [untrained_weights, other_world_events, user_tower_noise]
)
def test_seeded_drift_breaches_within_256_requests(trained, drift):
    bundle, users, events = trained
    with use_registry(MetricsRegistry()):
        service = serve(bundle, users, events)
        server = ServingServer(service, users, events)
        rng = np.random.default_rng(0)
        for flush in range(512 // FLUSH):
            traffic(server, rng, users)
            assert breached(service) == [], (flush + 1) * FLUSH
        server = ServingServer(service, users, drift(service, users, events))
        for flush in range(256 // FLUSH):
            traffic(server, rng, users)
            if "score_drift_ok" in breached(service):
                break
        else:
            pytest.fail(f"{drift.__name__}: no score_drift_ok breach in 256 requests")
