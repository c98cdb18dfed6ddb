"""Unit tests for the Self-Maintainability Index."""

import numpy as np
import pytest

from dcrobot.network import (
    Fabric,
    HallLayout,
    SwitchRole,
    generate_model_catalog,
)
from dcrobot.topology import (
    build_fattree,
    build_jellyfish,
    compute_smi,
)
from dcrobot.topology.base import Topology


def small_topology(model_count=24, bundle_capacity=24, seed=3):
    # A hall big enough that the cross-hall links exceed AOC reach and
    # use separable MPO fiber; switches sit at ~2 m height (u=45).
    rng = np.random.default_rng(seed)
    fabric = Fabric(layout=HallLayout(rows=6, racks_per_row=12,
                                      height_u=48),
                    rng=rng,
                    model_catalog=generate_model_catalog(model_count, rng),
                    bundle_capacity=bundle_capacity)
    a = fabric.add_switch(SwitchRole.TOR, radix=8, u_position=45,
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=8, u_position=45,
                          rack_id=fabric.layout.rack_at(5, 11).id)
    for _ in range(6):
        fabric.connect(a.id, b.id)
    return Topology(name="pair", fabric=fabric, params={},
                    switches_by_role={SwitchRole.TOR: [a.id, b.id]},
                    host_ids=[])


def test_smi_in_unit_interval():
    report = compute_smi(small_topology())
    assert 0.0 < report.smi <= 1.0
    for value in report.factors.values():
        assert 0.0 < value <= 1.0


def test_all_factors_present():
    report = compute_smi(small_topology())
    assert set(report.factors) == {
        "reach", "occlusion", "serviceability", "uniformity", "granularity"}


def test_uniform_models_score_higher():
    uniform = compute_smi(small_topology(model_count=1))
    diverse = compute_smi(small_topology(model_count=24))
    assert uniform.factors["uniformity"] > diverse.factors["uniformity"]
    assert uniform.factors["uniformity"] == pytest.approx(1.0)


def test_finer_bundles_raise_granularity_and_occlusion():
    coarse = compute_smi(small_topology(bundle_capacity=24))
    fine = compute_smi(small_topology(bundle_capacity=1))
    assert fine.factors["granularity"] >= coarse.factors["granularity"]
    assert fine.factors["occlusion"] > coarse.factors["occlusion"]


def test_short_reach_lowers_score():
    topo = small_topology()
    tall = compute_smi(topo, robot_reach_m=3.0)
    short = compute_smi(topo, robot_reach_m=0.3)
    assert short.factors["reach"] < tall.factors["reach"]
    assert short.smi < tall.smi


def test_weights_can_disable_factor():
    topo = small_topology(model_count=24)
    ignore_uniformity = compute_smi(
        topo, weights={"uniformity": 0.0})
    only_uniformity = compute_smi(
        topo, weights={"reach": 0.0, "occlusion": 0.0,
                       "serviceability": 0.0, "granularity": 0.0})
    assert only_uniformity.smi == pytest.approx(
        max(only_uniformity.factors["uniformity"], 1e-3))
    assert ignore_uniformity.smi != only_uniformity.smi


def test_unknown_weight_rejected():
    with pytest.raises(ValueError):
        compute_smi(small_topology(), weights={"nope": 1.0})


def test_empty_topology_scores_one():
    rng = np.random.default_rng(0)
    fabric = Fabric(rng=rng)
    topo = Topology(name="empty", fabric=fabric, params={},
                    switches_by_role={}, host_ids=[])
    report = compute_smi(topo)
    assert report.smi == pytest.approx(1.0)


def test_smi_comparable_across_real_topologies():
    # Same radix class: fat-tree (structured, short intra-pod runs)
    # vs jellyfish (random, long cross-hall runs).  Both must produce
    # finite, comparable scores.
    ft = compute_smi(build_fattree(k=4, rng=np.random.default_rng(1)))
    jf = compute_smi(build_jellyfish(switches=20, degree=4,
                                     rng=np.random.default_rng(1)))
    assert 0.0 < ft.smi <= 1.0
    assert 0.0 < jf.smi <= 1.0
