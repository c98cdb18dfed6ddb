"""Unit tests for hazard models and the environment."""

import numpy as np
import pytest

from dcrobot.failures import (
    SECONDS_PER_YEAR,
    Environment,
    ExponentialHazard,
    WeibullHazard,
    per_year,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_per_year_conversion():
    assert per_year(1.0) == pytest.approx(1.0 / SECONDS_PER_YEAR)


def test_exponential_mean_matches_rate(rng):
    hazard = ExponentialHazard(rate_per_second=0.01)
    samples = [hazard.sample(rng) for _ in range(4000)]
    assert np.mean(samples) == pytest.approx(100.0, rel=0.1)
    assert hazard.mean == pytest.approx(100.0)


def test_exponential_per_year_constructor():
    hazard = ExponentialHazard.per_year(12.0)
    assert hazard.mean == pytest.approx(SECONDS_PER_YEAR / 12.0)


def test_exponential_validation():
    with pytest.raises(ValueError):
        ExponentialHazard(0.0)


def test_weibull_mean(rng):
    hazard = WeibullHazard(shape=2.0, scale_seconds=1000.0)
    samples = [hazard.sample(rng) for _ in range(4000)]
    assert np.mean(samples) == pytest.approx(hazard.mean, rel=0.1)


def test_weibull_shape_one_is_exponential(rng):
    hazard = WeibullHazard(shape=1.0, scale_seconds=500.0)
    assert hazard.mean == pytest.approx(500.0)


def test_weibull_validation():
    with pytest.raises(ValueError):
        WeibullHazard(shape=0.0, scale_seconds=10.0)
    with pytest.raises(ValueError):
        WeibullHazard(shape=1.0, scale_seconds=0.0)


# -- environment ------------------------------------------------------------

def test_temperature_diurnal_cycle():
    env = Environment(base_temperature_c=24.0, diurnal_amplitude_c=2.0,
                      period_seconds=86400.0)
    quarter = 86400.0 / 4
    assert env.temperature_c(0.0) == pytest.approx(24.0)
    assert env.temperature_c(quarter) == pytest.approx(26.0)
    assert env.temperature_c(3 * quarter) == pytest.approx(22.0)
    # Periodicity
    assert env.temperature_c(86400.0 + quarter) == pytest.approx(26.0)


def test_stress_multiplier_baseline_is_one():
    env = Environment(diurnal_amplitude_c=0.0)
    assert env.stress_multiplier(1234.0) == pytest.approx(1.0)


def test_stress_grows_with_temperature_deviation():
    env = Environment(diurnal_amplitude_c=4.0)
    peak = 86400.0 / 4
    assert env.stress_multiplier(peak) == pytest.approx(1.4)


def test_vibration_adds_and_expires():
    env = Environment(diurnal_amplitude_c=0.0)
    env.add_vibration(now=100.0, magnitude=0.5, duration_seconds=60.0)
    assert env.vibration_level(101.0) == pytest.approx(0.5)
    assert env.stress_multiplier(101.0) == pytest.approx(1.5)
    assert env.vibration_level(161.0) == 0.0
    assert env.stress_multiplier(161.0) == pytest.approx(1.0)


def test_vibration_stacks():
    env = Environment(diurnal_amplitude_c=0.0)
    env.add_vibration(0.0, 0.3, 100.0)
    env.add_vibration(0.0, 0.2, 100.0)
    assert env.vibration_level(50.0) == pytest.approx(0.5)


def test_vibration_validation():
    env = Environment()
    with pytest.raises(ValueError):
        env.add_vibration(0.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        env.add_vibration(0.0, 1.0, 0.0)
