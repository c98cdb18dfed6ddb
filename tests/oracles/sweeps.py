"""Per-link reference sweeps: the oracles the periodic batch kernels match.

Each function walks ``fabric.links`` in insertion order, one Python
object at a time, the way the simulator swept links before the
columnar kernels.  The kernels must leave the same columns, consume
the same RNG draws in the same order, and deliver the same events:

* :func:`health_tick` — :meth:`HealthModel.tick_all`;
* :func:`dust_tick` — :meth:`DustProcess.step_all`;
* :func:`aging_tick` — :meth:`OxidationAging.step_all`;
* :func:`monitor_poll` — :meth:`TelemetryMonitor.poll_all`.
"""

from __future__ import annotations


def health_tick(health, now: float) -> None:
    """Re-evaluate every link."""
    for link in health.fabric.links.values():
        health.evaluate_link(link, now)


def dust_tick(dust, now: float) -> None:
    """Deposit one tick's dust on every separable end-face."""
    fraction_of_day = dust.tick_seconds / 86400.0
    for link in dust.fabric.links.values():
        cable = link.cable
        if not cable.cleanable:
            continue
        amount = (dust.mean_rate_per_day
                  * dust.factor_for(cable.id) * fraction_of_day
                  * float(dust.rng.uniform(0.5, 1.5)))
        if amount <= 0:
            continue
        for end in (cable.end_a, cable.end_b):
            core = int(dust.rng.integers(end.core_count))
            end.add_contamination(amount, cores=[core])


def aging_tick(aging, now: float) -> None:
    """Advance corrosion on every seated transceiver."""
    fraction_of_day = aging.tick_seconds / 86400.0
    for link in aging.fabric.links.values():
        for unit in link.transceivers():
            if not unit.seated:
                continue
            growth = aging.rate_for(unit.id) * fraction_of_day
            unit.oxidation = min(1.0, unit.oxidation + growth)


def monitor_poll(monitor, now: float):
    """One full-fleet detect/mute/trace/deliver pass, no prefilter."""
    return monitor._scan(monitor.fabric.links.values(), now)
