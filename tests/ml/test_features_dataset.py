"""Unit tests for feature extraction, dust, and dataset labelling."""

import numpy as np
import pytest

from dcrobot.failures import DustProcess
from dcrobot.ml import (
    FEATURE_NAMES,
    DatasetCollector,
    FeatureExtractor,
    LogisticRegression,
    roc_auc,
)
from dcrobot.network import LinkState

from tests.conftest import make_world, start_sweeps

HOUR = 3600.0


def extractor_for(world, seed=5):
    return FeatureExtractor(world.environment,
                            rng=np.random.default_rng(seed))


def test_feature_vector_shape_and_names(world):
    extractor = extractor_for(world)
    vector = extractor.extract(world.links[0], now=1000.0)
    assert vector.shape == (len(FEATURE_NAMES),)
    assert np.isfinite(vector).all()


def test_rx_margin_drops_with_dirt(world):
    extractor = extractor_for(world)
    link = world.links[0]
    clean_margin = np.mean([extractor.rx_margin_db(link)
                            for _ in range(50)])
    link.cable.end_a.add_contamination(0.5)
    dirty_margin = np.mean([extractor.rx_margin_db(link)
                            for _ in range(50)])
    assert dirty_margin < clean_margin - 1.0


def test_rx_margin_drops_with_oxidation(world):
    extractor = extractor_for(world)
    link = world.links[0]
    base = np.mean([extractor.rx_margin_db(link) for _ in range(50)])
    link.transceiver_a.oxidation = 0.8
    oxidized = np.mean([extractor.rx_margin_db(link)
                        for _ in range(50)])
    assert oxidized < base


def test_feature_matrix(world):
    extractor = extractor_for(world)
    matrix = np.vstack([extractor.extract(link, now=0.0)
                        for link in world.links])
    assert matrix.shape == (len(world.links), len(FEATURE_NAMES))


# -- dust ------------------------------------------------------------------

def test_dust_accumulates_only_on_separable(world):
    dust = DustProcess(world.fabric, mean_rate_per_day=0.5,
                       rng=np.random.default_rng(3))
    for day in range(10):
        dust.step_all(day * 86400.0)
    assert any(link.cable.worst_contamination > 0
               for link in world.links)


def test_dust_hotspots_are_heterogeneous(world):
    dust = DustProcess(world.fabric, hotspot_sigma=1.5,
                       rng=np.random.default_rng(4))
    factors = [dust.factor_for(link.cable.id) for link in world.links]
    assert max(factors) > 2 * min(factors)
    # Factor is stable per cable.
    assert dust.factor_for(world.links[0].cable.id) == factors[0]


def test_dust_validation(world):
    with pytest.raises(ValueError):
        DustProcess(world.fabric, mean_rate_per_day=-1)
    with pytest.raises(ValueError):
        DustProcess(world.fabric, tick_seconds=0)


# -- dataset -----------------------------------------------------------------

def test_collector_validation(world):
    extractor = extractor_for(world)
    with pytest.raises(ValueError):
        DatasetCollector(world.fabric, extractor, snapshot_interval=0)
    with pytest.raises(ValueError):
        DatasetCollector(world.fabric, extractor, horizon_seconds=0)


def test_snapshots_skip_down_links(world):
    extractor = extractor_for(world)
    collector = DatasetCollector(world.fabric, extractor)
    world.links[0].set_state(0.0, LinkState.DOWN)
    collector.snapshot(now=10.0)
    assert len(collector._rows) == len(world.links) - 1


def test_labels_reflect_future_downtime(world):
    extractor = extractor_for(world)
    collector = DatasetCollector(world.fabric, extractor,
                                 horizon_seconds=10 * HOUR)
    collector.snapshot(now=0.0)
    # links[0] goes down inside the horizon; links[1] after it.
    world.links[0].set_state(5 * HOUR, LinkState.DOWN)
    world.links[1].set_state(20 * HOUR, LinkState.DOWN)
    dataset = collector.build(sim_end=100 * HOUR)
    by_link = dict(zip(dataset.link_ids, dataset.labels))
    assert by_link[world.links[0].id] == 1
    assert by_link[world.links[1].id] == 0


def test_rows_beyond_horizon_dropped(world):
    extractor = extractor_for(world)
    collector = DatasetCollector(world.fabric, extractor,
                                 horizon_seconds=10 * HOUR)
    collector.snapshot(now=0.0)
    collector.snapshot(now=95 * HOUR)  # horizon exceeds sim end
    dataset = collector.build(sim_end=100 * HOUR)
    assert len(dataset) == len(world.links)


def test_end_to_end_prediction_beats_chance():
    # Dusty world: margins trend down before links start flapping, so a
    # trained model must rank failing links above healthy ones.
    world = make_world(links=12, seed=23)
    extractor = extractor_for(world, seed=11)
    collector = DatasetCollector(world.fabric, extractor,
                                 snapshot_interval=6 * HOUR,
                                 horizon_seconds=48 * HOUR)
    dust = DustProcess(world.fabric, mean_rate_per_day=0.02,
                       hotspot_sigma=1.2,
                       rng=np.random.default_rng(6))
    sim = world.sim
    start_sweeps(sim, health=world.health, dust=dust)
    sim.process(collector.run(sim))
    horizon = 60 * 86400.0
    sim.run(until=horizon)
    dataset = collector.build(sim_end=horizon)
    assert len(dataset) > 100
    assert 0.0 < dataset.positive_fraction < 1.0
    model = LogisticRegression(epochs=400).fit(dataset.features,
                                               dataset.labels)
    auc = roc_auc(dataset.labels,
                  model.predict_proba(dataset.features))
    assert auc > 0.7
