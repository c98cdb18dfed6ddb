"""Slow environmental contamination (dust) of fiber end-faces.

Unlike the injector's discrete dirt events (a contaminated mating, a
technician's fingerprint), dust accumulates *gradually* — and unevenly:
cables routed near floor vents or high-traffic aisles collect dust much
faster.  This heterogeneous slow process is what makes failures
*predictable*: a link's optical margin trends down for days before the
flapping starts, exactly the signal §4's predictive maintenance exploits.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional

import numpy as np

from dcrobot.network.inventory import Fabric

#: ``next_double``: the top 53 bits of a raw draw, scaled to [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW_32 = 0xFFFFFFFF


class DustProcess:
    """Per-cable heterogeneous dust accumulation.

    ``rng`` must run on :class:`numpy.random.PCG64`, as every
    ``default_rng`` does: :meth:`step_all` replays that bit generator's
    raw stream through numpy's own transforms, so any other bit
    generator is refused with ``TypeError``.
    """

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
        if not isinstance(self.rng.bit_generator, np.random.PCG64):
            raise TypeError(
                "DustProcess replays PCG64's stream; got a "
                f"{type(self.rng.bit_generator).__name__} bit generator")
        #: Per-cable dustiness multiplier (lognormal: most cables are
        #: clean-ish, a tail of hotspot cables collect dust fast).
        self._factor: Dict[str, float] = {}
        #: The cable of every cleanable link in insertion order, for
        #: :meth:`step_all`, with its row, its two ends' core counts
        #: (n, 2) and its factor (NaN until sampled); the rows are
        #: re-read whenever the fabric state's structural generation
        #: moves, the rest only when the cables did (a transceiver swap
        #: moves none).
        self._cleanable_generation = -1
        self._cables: list = []
        self._rows = np.zeros(0, dtype=np.int64)
        self._core_counts = np.zeros((0, 2), dtype=np.int64)
        self._factors = np.zeros(0)

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

        The draws are those of ``dust_tick`` in ``tests/oracles/sweeps.py``
        (the per-link loop over ``fabric.links``), bit for bit: per
        cable, in insertion order, its factor, ``uniform(0.5, 1.5)``,
        and while the amount is positive ``integers(cores)`` for end a,
        then end b.  A run of cables whose factors are already sampled
        (every cable of a steady tick) is replayed from one raw block
        (:meth:`_replay`); a cable with no factor yet is drawn by the
        generator's own calls at its place in the stream (its lognormal
        cannot be replayed from raw bits), and so is a cable at which
        the replay stops (a Lemire rejection, or an amount that
        underflows to zero).  The deposits, which no draw depends on,
        then land in one gather, clip and scatter per side on the
        state's ``cable_end_cores``, and one ``np.maximum`` into
        ``cable_end_worst``.
        """
        state = self.fabric.state
        if self._cleanable_generation != state.generation:
            n = state.n_links
            rows = state.rows_in_insertion_order(
                np.nonzero(state.cleanable[:n])[0])
            links_by_row = state.links_by_row
            cables = [links_by_row[row].cable for row in rows.tolist()]
            if cables != self._cables:
                self._cables = cables
                self._core_counts = np.array(
                    [(cable.end_a.core_count, cable.end_b.core_count)
                     for cable in cables], dtype=np.int64).reshape(-1, 2)
                self._factors = np.array(
                    [self._factor.get(cable.id, np.nan) for cable in cables])
            self._rows = np.asarray(rows, dtype=np.int64)
            self._cleanable_generation = state.generation
        count = len(self._cables)
        amounts = np.zeros(count)
        picks = np.zeros((count, 2), dtype=np.int64)
        # Each replay runs up to the next cable with no factor yet.
        unsampled = np.flatnonzero(np.isnan(self._factors)).tolist()
        unsampled.append(count)
        start = 0
        while start < count:
            stop = unsampled[bisect_left(unsampled, start)]
            if start < stop:
                start = self._replay(start, stop, amounts, picks)
            if start < count:
                self._draw(start, amounts, picks)
                start += 1
        self._deposit(amounts, picks)

    def _draw(self, index: int, amounts: np.ndarray,
              picks: np.ndarray) -> None:
        """Draw one cable with the generator's own calls, as the per-link
        loop does."""
        cable = self._cables[index]
        factor = self.factor_for(cable.id)
        self._factors[index] = factor
        amount = (self.mean_rate_per_day * factor
                  * (self.tick_seconds / 86400.0)
                  * float(self.rng.uniform(0.5, 1.5)))
        if amount <= 0:
            return
        amounts[index] = amount
        picks[index, 0] = int(self.rng.integers(cable.end_a.core_count))
        picks[index, 1] = int(self.rng.integers(cable.end_b.core_count))

    def _replay(self, start: int, stop: int, amounts: np.ndarray,
                picks: np.ndarray) -> int:
        """Replay cables ``[start, stop)``, whose factors are sampled,
        from one ``random_raw`` block; returns ``stop``, or the first
        cable it could not replay, with the generator left where that
        cable's draws begin.

        numpy's transforms on PCG64: ``uniform(0.5, 1.5)`` is
        ``0.5 + 1.0 * ((raw >> 11) * 2**-53)``, one whole raw, and
        ``integers(k)`` for ``k > 1`` is Lemire's method on
        ``next_uint32``: the buffered high half of the last raw if
        ``has_uint32`` is set, else the low half of a fresh raw, whose
        high half it buffers.  ``integers(1)`` draws nothing.  The
        buffer is read from ``bit_generator.state`` and written back
        (numpy leaves ``uinteger`` at the last buffered half even once
        it is consumed).  Lemire rejects a draw whose low product bits
        fall below ``2**32 mod k`` (never for a power of two), and an
        amount whose sign the factor did not foretell (an underflow)
        changes which draws follow; either stops the replay at that
        cable.
        """
        bit_generator = self.rng.bit_generator
        saved = bit_generator.state
        buffered, half = saved["has_uint32"], saved["uinteger"]
        n = stop - start
        base = (self.mean_rate_per_day * self._factors[start:stop]
                * (self.tick_seconds / 86400.0))
        planned = base > 0
        # Which faces draw a 32-bit value, in draw order (a0, b0, a1, ...).
        counts = self._core_counts[start:stop].ravel()
        draws = planned.repeat(2) & (counts > 1)
        ordinal = np.cumsum(draws) - 1
        fresh = draws & ((ordinal + buffered) % 2 == 0)
        # Slots per cable: its uniform, then end a's and end b's draws.
        takes = np.ones((n, 3), dtype=bool)
        takes[:, 1:] = fresh.reshape(n, 2)
        raw_index = np.cumsum(takes).reshape(n, 3) - 1
        raws = bit_generator.random_raw(int(raw_index[-1, -1]) + 1)

        uniform = 0.5 + 1.0 * ((raws[raw_index[:, 0]] >> 11) * _DOUBLE_SCALE)
        amount = base * uniform
        # The 32-bit stream: the buffered half, then low and high halves
        # of each fresh raw; the j-th draw reads halves[j + 1 - buffered].
        taken = raws[raw_index[:, 1:].ravel()[fresh]]
        halves = np.empty(1 + 2 * taken.size, dtype=np.uint64)
        halves[0] = half
        halves[1::2] = taken & _LOW_32
        halves[2::2] = taken >> 32
        faces = np.flatnonzero(draws)
        bound = counts[faces].astype(np.uint64)
        product = halves[1 - buffered:1 - buffered + faces.size] * bound
        core = (product >> 32).astype(np.int64)
        rejected = (product & _LOW_32) < (2 ** 32 - bound) % bound
        stray = np.flatnonzero((amount > 0) != planned)
        stuck = faces[rejected] // 2
        done = min(int(stray[0]) if stray.size else n,
                   int(stuck[0]) if stuck.size else n)

        keep = faces < 2 * done
        used = int(np.count_nonzero(keep))
        amounts[start:start + done] = amount[:done]
        picks.ravel()[2 * start + faces[keep]] = core[keep]
        if done < n:
            # Rewind to where the stopped cable's draws begin.
            bit_generator.state = saved
            bit_generator.advance(int(raw_index[done, 0]))
        state = bit_generator.state
        has = (used + buffered) % 2
        state["has_uint32"] = has
        state["uinteger"] = int(halves[used - buffered + has])
        bit_generator.state = state
        return start + done

    def _deposit(self, amounts: np.ndarray, picks: np.ndarray) -> None:
        """Add each cable's amount to its two picked cores, clipped at
        1.0, and raise the worst-core column where a level passed it."""
        hit = np.flatnonzero(amounts > 0)
        if not hit.size:
            return
        state = self.fabric.state
        rows = self._rows[hit]
        amount = amounts[hit]
        cores = state.cable_end_cores
        worst = state.cable_end_worst
        for side in (0, 1):
            core = picks[hit, side]
            level = np.minimum(cores[side, core, rows] + amount, 1.0)
            cores[side, core, rows] = level
            column = worst[side, rows]
            worst[side, rows] = np.maximum(column, level)
            state.input_writes += int(np.count_nonzero(level > column))
