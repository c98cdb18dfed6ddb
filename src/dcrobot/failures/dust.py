"""Slow environmental contamination (dust) of fiber end-faces.

Unlike the injector's discrete dirt events (a contaminated mating, a
technician's fingerprint), dust accumulates *gradually* — and unevenly:
cables routed near floor vents or high-traffic aisles collect dust much
faster.  This heterogeneous slow process is what makes failures
*predictable*: a link's optical margin trends down for days before the
flapping starts, exactly the signal §4's predictive maintenance exploits.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from dcrobot.network.inventory import Fabric


class DustProcess:
    """Per-cable heterogeneous dust accumulation."""

    def __init__(self, fabric: Fabric,
                 mean_rate_per_day: float = 0.004,
                 hotspot_sigma: float = 1.2,
                 tick_seconds: float = 6 * 3600.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if mean_rate_per_day < 0:
            raise ValueError("mean_rate_per_day must be >= 0")
        if tick_seconds <= 0:
            raise ValueError("tick_seconds must be > 0")
        self.fabric = fabric
        self.mean_rate_per_day = mean_rate_per_day
        self.hotspot_sigma = hotspot_sigma
        self.tick_seconds = tick_seconds
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Per-cable dustiness multiplier (lognormal: most cables are
        #: clean-ish, a tail of hotspot cables collect dust fast).
        self._factor: Dict[str, float] = {}
        #: ``(cable_id, end_a, end_b)`` of every cleanable link in
        #: insertion order, for :meth:`step_all`; keyed by the fabric
        #: state's structural generation (a cable swap bumps it).
        self._cleanable_generation = -1
        self._cleanable_ends: list = []

    def factor_for(self, cable_id: str) -> float:
        """The cable's (lazily sampled) dust-exposure multiplier."""
        factor = self._factor.get(cable_id)
        if factor is None:
            factor = float(self.rng.lognormal(0.0, self.hotspot_sigma))
            self._factor[cable_id] = factor
        return factor

    # -- vectorized sweep ------------------------------------------------------

    def step_all(self, now: float) -> None:
        """Deposit one tick's dust on every separable end-face, driven by
        the columnar cleanable mask.

        The RNG here cannot be batched bit-identically (``integers``
        uses Lemire rejection, whose draw count is data-dependent), so
        the loop body stays scalar and stream-identical to
        ``dust_tick`` in ``tests/oracles/sweeps.py``, the per-link loop
        over ``fabric.links``.  What it saves is overhead around the
        draws: the non-cleanable links are skipped via a cached,
        insertion-ordered list of ``(cable_id, end_a, end_b)``, the RNG
        methods are bound once per tick, and each single-core deposit
        writes the face's worst-core column through instead of
        re-reducing the face.
        """
        state = self.fabric.state
        if self._cleanable_generation != state.generation:
            n = state.n_links
            rows = state.rows_in_insertion_order(
                np.nonzero(state.cleanable[:n])[0])
            cables = [state.links_by_row[row].cable for row in rows]
            self._cleanable_ends = [(cable.id, cable.end_a, cable.end_b)
                                    for cable in cables]
            self._cleanable_generation = state.generation
        mean_rate = self.mean_rate_per_day
        fraction_of_day = self.tick_seconds / 86400.0
        factor_for = self.factor_for
        uniform = self.rng.uniform
        integers = self.rng.integers
        for cable_id, end_a, end_b in self._cleanable_ends:
            amount = (mean_rate * factor_for(cable_id) * fraction_of_day
                      * float(uniform(0.5, 1.5)))
            if amount <= 0:
                continue
            end_a.add_contamination(
                amount, cores=[int(integers(end_a.core_count))])
            end_b.add_contamination(
                amount, cores=[int(integers(end_b.core_count))])
