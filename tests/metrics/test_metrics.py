"""Unit tests for availability, MTTR, amplification, cost, tables."""

import math

import numpy as np
import pytest

from dcrobot.core.actions import RepairAction, RepairOutcome, WorkOrder
from dcrobot.metrics import (
    CostModel,
    CostParams,
    Table,
    amplification_from_outcomes,
    format_duration,
    link_availability,
    mtbf_seconds,
    repair_time_stats,
)
from dcrobot.network import LinkState

HOUR = 3600.0
DAY = 86400.0


def outcome(disturbed=0, damaged=0):
    order = WorkOrder("link-x", RepairAction.RESEAT, created_at=0.0)
    return RepairOutcome(order=order, executor_id="t", started_at=0.0,
                         finished_at=10.0, completed=True,
                         secondary_disturbed=disturbed,
                         secondary_damaged=damaged)


# -- availability -------------------------------------------------------------

def test_link_availability_full_up(world):
    summary = link_availability(world.fabric, 0.0, 1000.0)
    assert summary.mean == 1.0
    assert summary.worst == 1.0
    assert summary.nines == math.inf


def test_link_availability_with_downtime(world):
    world.links[0].set_state(100.0, LinkState.DOWN)
    world.links[0].set_state(200.0, LinkState.UP)
    summary = link_availability(world.fabric, 0.0, 1000.0)
    assert summary.per_link[world.links[0].id] == pytest.approx(0.9)
    expected_mean = (0.9 + 3.0) / 4
    assert summary.mean == pytest.approx(expected_mean)
    assert summary.worst == pytest.approx(0.9)


def test_nines_computation(world):
    world.links[0].set_state(0.0, LinkState.DOWN)
    world.links[0].set_state(1.0, LinkState.UP)
    summary = link_availability(world.fabric, 0.0, 10000.0)
    assert 0 < summary.nines < math.inf


def test_downtime_seconds(world):
    link = world.links[0]
    link.set_state(100.0, LinkState.DOWN)
    link.set_state(400.0, LinkState.UP)
    summary = link_availability(world.fabric, 0.0, 1000.0)
    assert (1.0 - summary.per_link[link.id]) * 1000.0 \
        == pytest.approx(300.0)


# -- repair times -----------------------------------------------------------------

def test_repair_time_stats():
    times = [60.0, 120.0, 300.0, 3600.0]
    stats = repair_time_stats(times)
    assert stats.count == 4
    assert stats.mean == pytest.approx(np.mean(times))
    assert stats.max == 3600.0
    assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
    with pytest.raises(ValueError):
        repair_time_stats([])


def test_format_duration():
    assert format_duration(30) == "30s"
    assert format_duration(90) == "1.5m"
    assert format_duration(2.5 * HOUR) == "2.5h"
    assert format_duration(3 * DAY) == "3.0d"
    with pytest.raises(ValueError):
        format_duration(-1)


def test_mtbf():
    assert mtbf_seconds(10, 100, 30 * DAY) \
        == pytest.approx(100 * 30 * DAY / 10)
    assert mtbf_seconds(0, 100, DAY) == float("inf")
    with pytest.raises(ValueError):
        mtbf_seconds(1, 0, DAY)


# -- amplification -----------------------------------------------------------------

def test_amplification_factor():
    stats = amplification_from_outcomes(
        [outcome(disturbed=1), outcome(), outcome(damaged=1)])
    assert stats.repairs == 3
    assert stats.secondary_total == 2
    assert stats.amplification_factor == pytest.approx(1 + 2 / 3)


def test_amplification_empty():
    stats = amplification_from_outcomes([])
    assert stats.amplification_factor == 1.0


# -- cost ----------------------------------------------------------------------------

def test_cost_breakdown():
    model = CostModel(CostParams(
        technician_hourly_usd=100.0,
        robot_unit_capex_usd=50_000.0,
        robot_amortization_years=5.0,
        robot_opex_hourly_usd=2.0,
        spare_transceiver_usd=400.0,
        spare_cable_usd=300.0))
    year = 365.25 * DAY
    breakdown = model.compute(
        horizon_seconds=year,
        technician_labor_seconds=10 * HOUR,
        supervision_seconds=5 * HOUR,
        robot_count=2,
        robot_busy_seconds=100 * HOUR,
        transceivers_consumed=3,
        cables_consumed=1)
    assert breakdown.labor_usd == pytest.approx(1000.0)
    assert breakdown.supervision_usd == pytest.approx(500.0)
    assert breakdown.robot_capex_usd == pytest.approx(20_000.0)
    assert breakdown.robot_opex_usd == pytest.approx(200.0)
    assert breakdown.spares_usd == pytest.approx(1500.0)
    assert breakdown.total_usd == pytest.approx(23_200.0)


def test_cost_validation():
    with pytest.raises(ValueError):
        CostParams(robot_amortization_years=0.0)
    with pytest.raises(ValueError):
        CostModel().compute(horizon_seconds=0.0)


# -- tables ------------------------------------------------------------------------------

def test_table_renders_aligned():
    table = Table(["policy", "mttr"], title="E1")
    table.add_row("human", 1.23456)
    table.add_row("robot", "12m")
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "E1"
    assert "policy" in lines[1]
    assert "1.235" in text
    assert "robot" in text


def test_table_validation():
    with pytest.raises(ValueError):
        Table([])
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")
