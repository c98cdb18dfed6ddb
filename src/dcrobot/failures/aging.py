"""Gradual contact oxidation of seated transceivers.

"Gold is not immune from oxidation and corrosion" (§3.2): contacts
corrode slowly while a transceiver sits in its cage, at unit-specific
rates (plating quality, micro-environment).  This is the slow process
that proactive reseat sweeps pre-empt: reseating wipes the contacts and
resets the clock *before* the link ever misbehaves.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from dcrobot.network.inventory import Fabric


class OxidationAging:
    """Per-transceiver heterogeneous oxidation growth."""

    def __init__(self, fabric: Fabric,
                 mean_rate_per_day: float = 0.002,
                 unit_sigma: float = 1.0,
                 tick_seconds: float = 6 * 3600.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if mean_rate_per_day < 0:
            raise ValueError("mean_rate_per_day must be >= 0")
        if tick_seconds <= 0:
            raise ValueError("tick_seconds must be > 0")
        self.fabric = fabric
        self.mean_rate_per_day = mean_rate_per_day
        self.unit_sigma = unit_sigma
        self.tick_seconds = tick_seconds
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._rate: Dict[str, float] = {}
        #: Row-aligned rate cache for :meth:`step_all` (NaN = unsampled),
        #: rebuilt from ``_rate`` whenever the fabric's row layout moves.
        self._rate_rows = np.zeros((2, 0))
        self._rate_rows_generation = -1

    def rate_for(self, unit_id: str) -> float:
        """The unit's (lazily sampled) oxidation rate per day."""
        rate = self._rate.get(unit_id)
        if rate is None:
            rate = self.mean_rate_per_day * float(
                self.rng.lognormal(0.0, self.unit_sigma))
            self._rate[unit_id] = rate
        return rate

    # -- vectorized sweep ------------------------------------------------------

    def _rebuild_rate_rows(self, state) -> None:
        """Re-align the cached per-row rates after a structural change."""
        n = state.n_links
        rates = np.full((2, n), np.nan)
        known = self._rate.get
        for row, link in enumerate(state.links_by_row):
            rate_a = known(link.transceiver_a.id)
            if rate_a is not None:
                rates[0, row] = rate_a
            rate_b = known(link.transceiver_b.id)
            if rate_b is not None:
                rates[1, row] = rate_b
        self._rate_rows = rates
        self._rate_rows_generation = state.generation

    def step_all(self, now: float) -> None:
        """Advance corrosion on every seated transceiver, columnarily.

        Bit-identical to ``aging_tick`` in ``tests/oracles/sweeps.py``,
        the per-link loop over ``fabric.links``: units whose rate has
        not been sampled yet draw from the RNG lazily, batched in that
        loop's exact (link, side a→b) encounter order — and only while
        seated, which is when the loop first reaches :meth:`rate_for`.
        Growth is then one masked array update.
        """
        state = self.fabric.state
        n = state.n_links
        if n == 0:
            return
        if self._rate_rows_generation != state.generation:
            self._rebuild_rate_rows(state)
        rates = self._rate_rows
        seated = state.seated[:, :n]
        missing = seated & np.isnan(rates)
        if missing.any():
            rows = state.rows_in_insertion_order(
                np.nonzero(missing.any(axis=0))[0])
            pending = []
            for row in rows:
                link = state.links_by_row[row]
                for side, unit in enumerate(link.transceivers()):
                    if missing[side, row]:
                        pending.append((side, row, unit.id))
            draws = self.rng.lognormal(0.0, self.unit_sigma,
                                       size=len(pending))
            for (side, row, unit_id), draw in zip(pending, draws):
                rate = self.mean_rate_per_day * float(draw)
                self._rate[unit_id] = rate
                rates[side, row] = rate
        fraction_of_day = self.tick_seconds / 86400.0
        ox = state.ox[:, :n]
        ox[seated] = np.minimum(1.0, ox[seated]
                                + rates[seated] * fraction_of_day)
        state.input_writes += 1
