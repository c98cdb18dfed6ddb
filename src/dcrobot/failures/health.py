"""Link health: physical condition → operational state and loss rate.

This is where gray failures live.  Each link's *impairment score* in
[0, 1] is derived from component physics (oxidation, end-face dirt,
hardware faults, physical disturbance) and the environment.  The score
maps to behaviour:

* below ``marginal_threshold`` — clean UP, negligible loss;
* the marginal band — a Gilbert–Elliott chain oscillates the link
  between UP (elevated loss) and short DOWN episodes: a *flapping* link
  whose tail-latency poison §1 describes;
* above ``hard_down_threshold`` — persistent DOWN.

The physics is written once, as one kernel over a contiguous range of
rows of the fabric's columnar state, plus the per-row step it runs on
the marginal band.  :meth:`HealthModel.tick_all` runs the kernel on
every row when a score input has moved and otherwise the step on the
few rows whose state can still change; the event-time callers (fault
injection, the cascade, repair verification, release from
maintenance) run the kernel on the link's one row through
:meth:`HealthModel.evaluate_link` and
:meth:`HealthModel.impairment_score`.  The per-link object walk the
kernel replaced is the test oracle in ``tests/oracles/sweeps.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from dcrobot.failures.environment import Environment
from dcrobot.network.endface import IMPAIRMENT_THRESHOLD
from dcrobot.network.enums import LinkState
from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link
from dcrobot.network.state import (
    DOWN_CODE,
    MAINTENANCE_CODE,
    STATE_OF,
    UP_CODE,
)


@dataclasses.dataclass
class HealthParams:
    """Tunables of the impairment → behaviour mapping."""

    tick_seconds: float = 60.0
    marginal_threshold: float = 0.18
    hard_down_threshold: float = 0.75
    base_loss: float = 1e-9
    #: P(good→bad) per tick at unit severity and unit stress.
    flap_g2b_per_tick: float = 0.12
    #: P(bad→good) per tick: bad episodes last ~2 ticks.
    flap_b2g_per_tick: float = 0.5
    oxidation_onset: float = 0.15
    disturbance_score: float = 0.35
    max_marginal_loss: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.marginal_threshold < self.hard_down_threshold <= 1:
            raise ValueError("thresholds must satisfy 0 < marginal < hard <= 1")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be > 0")


class HealthModel:
    """Evaluates and drives the operational state of every link.

    The score's physical inputs change far less often than it is asked
    for (a 32-link chaos hall re-scores 26,462 times in 90 days; 583 of
    those find a fault, dirt or oxidation input changed), so the kernel
    keeps three arrays over all rows: the hard-fault mask,
    ``max(0, ox - onset)`` and ``max(0, dirt - threshold)``.  They are
    refilled, by the same expressions over every row, only when the
    key ``(generation, input_writes, n_links)`` of the fabric state has
    moved since the last fill.  ``input_writes`` is bumped by every
    health-input writer: the ``Transceiver`` setters ``oxidation``,
    ``seated``, ``firmware_stuck`` and ``hw_fault``; ``Port.hw_fault``;
    the ``Cable`` setters ``damaged``, ``attached_a`` and
    ``attached_b``; ``EndFace`` mirror pushes and per-core
    write-throughs; the aging kernel's in-place update; and the twin's
    column-wise repairs.  Structural changes (bind, unbind, component
    swaps) bump ``generation`` instead.

    The tick pays per *live row*: a row that is not hard-faulted and has
    a dirt term, a disturbance, or an oxidation term inside the marginal
    band ``[marginal_threshold, hard_down_threshold)``.  Every other row
    is *settled*: it scores 1.0 (hard fault) or ``min(ox_term, 1.0)``
    (``dirt_term * stress`` is exactly 0.0) at any stress and time, so
    the kernel would write it the code, loss and phase it wrote at the
    last full pass.  The only other writers of those columns on a bound
    row keep that fixed point: event-time evaluation writes the same
    values unless an input write or :meth:`disturb` moved the tick's
    key, :meth:`begin_maintenance` parks the row where the kernel skips
    it, and :meth:`release_from_maintenance` evaluates its row.  In a
    chaos hall 3 of 32 rows are live per tick on average, and 6% of
    ticks find none.

    Each loss change is told to the fabric state's row-change feed
    (code writes go through ``set_state``, which tells it too): the
    kernel on one row notes its row, the live pass notes each row whose
    loss it moved (most of its rewrites leave the loss as it was), and
    a full pass asks every consumer to rescan.
    """

    def __init__(self, fabric: Fabric, environment: Environment,
                 params: Optional[HealthParams] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.fabric = fabric
        self.environment = environment
        self.params = params or HealthParams()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Gilbert-Elliott phase per row: True while in a bad episode.
        self._bad = fabric.state.add_link_column(False)
        #: Disturbance expiry time per row (see :meth:`disturb`).
        self._disturbed = fabric.state.add_link_column(0.0)
        #: Cached score inputs over all rows (see the class docstring)
        #: and the state key they were filled at.
        self._inputs_key = None
        self._hard_fault = self._ox_term = self._dirt_term = None
        #: Bumped by every :meth:`disturb`: a row it marks turns live.
        self._disturbances = 0
        #: The tick's full-pass key at the last full pass, and the live
        #: rows that pass picked as ``(row, ox_term, dirt_term)`` in
        #: insertion order (see :meth:`tick_all`).
        self._tick_key = None
        self._live = []

    def _row(self, link_id: str) -> int:
        row = self.fabric.state.index_of.get(link_id)
        if row is None:
            raise ValueError(
                f"link {link_id} is not bound to this model's fabric")
        return row

    # -- disturbance (cascade hook) ------------------------------------------

    def disturb(self, link_id: str, until: float) -> None:
        """Mark a link physically disturbed until the given time."""
        row = self._row(link_id)
        expiry = self._disturbed.values
        expiry[row] = max(expiry[row], until)
        self._disturbances += 1

    def is_disturbed(self, link_id: str, now: float) -> bool:
        return bool(self._disturbed.values[self._row(link_id)] > now)

    # -- scoring -----------------------------------------------------------------

    def impairment_score(self, link: Link, now: float) -> float:
        """Physical impairment in [0, 1]; 1.0 means hard-down faults."""
        row = self._row(link.id)
        stress = self.environment.stress_multiplier(now)
        return float(self._scores(slice(row, row + 1), now, stress)[0])

    def marginal_loss(self, score: float) -> float:
        """Packet-loss probability for a marginal link in its good phase.

        Log-linear in the link's position within the marginal band:
        barely-marginal links lose ~1e-6, links about to go hard-down
        lose ~1e-2 (capped) — the measured range for gray optical links.
        """
        params = self.params
        severity = (score - params.marginal_threshold) / (
            params.hard_down_threshold - params.marginal_threshold)
        severity = min(max(severity, 0.0), 1.0)
        loss = 10.0 ** (-6.0 + 4.8 * severity)
        return float(min(loss, params.max_marginal_loss))

    # -- state machine ---------------------------------------------------------------

    def evaluate_link(self, link: Link, now: float) -> None:
        """Re-derive one link's state: the kernel on the link's row."""
        row = self._row(link.id)
        self._evaluate(slice(row, row + 1), now)

    def begin_maintenance(self, link: Link, now: float) -> None:
        """Administratively take a link out of service for repair."""
        link.set_state(now, LinkState.MAINTENANCE)
        link.loss_rate = 1.0

    def release_from_maintenance(self, link: Link, now: float) -> None:
        """Return a link to service and immediately re-derive its state."""
        row = self._row(link.id)
        link.set_state(now, LinkState.UP)
        self._bad.values[row] = False
        self._evaluate(slice(row, row + 1), now)

    def tick_all(self, now: float) -> None:
        """Re-evaluate every link, paying only for the live rows.

        A *full pass* runs when the key ``(generation, input_writes,
        n_links, disturbances)`` has moved since the last one (the first
        tick, a structural change, any health-input write, a
        :meth:`disturb`): the kernel on every row, which then picks the
        live rows (see the class docstring).  Otherwise a *live pass*
        runs the kernel's per-row step on the live rows alone, in
        insertion order, so the marginal draws and the ``set_state``
        calls come in the full kernel's order.  Vibration needs no key:
        it moves stress, and only live rows read stress.

        :meth:`evaluate_link` runs the same kernel on one row.  All are
        bit-identical to the per-link object walk the kernel replaced,
        now the test oracle in ``tests/oracles/sweeps.py``
        (``health_tick`` evaluates every link in ``fabric.links`` order).
        The key is not the score-input cache's: event-time evaluation
        refills that cache between ticks.
        """
        state = self.fabric.state
        key = (state.generation, state.input_writes, state.n_links,
               self._disturbances)
        if key == self._tick_key:
            self._live_pass(now)
            return
        self._evaluate(slice(0, state.n_links), now)
        self._pick_live(now)
        self._tick_key = key

    # -- the kernel ------------------------------------------------------------

    def _inputs(self):
        """The hard-fault mask and the oxidation and dirt terms of every
        row, refilled only when the state's input key has moved."""
        state = self.fabric.state
        key = (state.generation, state.input_writes, state.n_links)
        if key != self._inputs_key:
            rows = slice(0, state.n_links)
            self._hard_fault = (
                state.cable_damaged[rows]
                | state.unit_hw_fault[0, rows] | state.unit_hw_fault[1, rows]
                | state.unit_fw_stuck[0, rows] | state.unit_fw_stuck[1, rows]
                | state.port_hw_fault[0, rows] | state.port_hw_fault[1, rows]
                | state.cable_end_scratched[0, rows]
                | state.cable_end_scratched[1, rows]
                | ~state.seated[0, rows] | ~state.seated[1, rows]
                | ~state.cable_attached[0, rows]
                | ~state.cable_attached[1, rows])
            oxidation = np.maximum(state.ox[0, rows], state.ox[1, rows])
            self._ox_term = np.maximum(
                0.0, oxidation - self.params.oxidation_onset)
            dirt = np.maximum(
                np.maximum(state.cable_end_worst[0, rows],
                           state.cable_end_worst[1, rows]),
                np.maximum(state.recept_worst[0, rows],
                           state.recept_worst[1, rows]))
            self._dirt_term = np.maximum(0.0, dirt - IMPAIRMENT_THRESHOLD)
            self._inputs_key = key
        return self._hard_fault, self._ox_term, self._dirt_term

    def _scores(self, rows: slice, now: float,
                stress: float) -> np.ndarray:
        """Impairment scores of a contiguous row range, in [0, 1].

        The terms are added in the order the object walk adds them, so
        every score is the same float.
        """
        hard_fault, ox_term, dirt_term = self._inputs()
        score = ox_term[rows] + dirt_term[rows] * stress
        score[self._disturbed.values[rows] > now] += \
            self.params.disturbance_score
        score = np.minimum(score, 1.0)
        score[hard_fault[rows]] = 1.0
        return score

    def _evaluate(self, rows: slice, now: float) -> None:
        """Re-derive the state of a contiguous row range.

        ``rows`` is a slice, so every column below is a view.  Clean and
        hard-down rows are written as masks; the marginal band is small
        (2.4 rows per evaluation on average in a chaos hall), so its
        rows go through :meth:`_step` one at a time.  The
        Gilbert-Elliott draws are batched in ``fabric.links`` order
        (``rng.random(k)`` consumes the stream exactly like ``k``
        sequential scalar draws).
        """
        state = self.fabric.state
        params = self.params
        start = rows.start
        stress = self.environment.stress_multiplier(now)
        score = self._scores(rows, now, stress)

        code = state.state_code[rows]
        active = code != MAINTENANCE_CODE
        hard_down = active & (score >= params.hard_down_threshold)
        clean = active & (score < params.marginal_threshold)
        marginal = active & ~hard_down & ~clean

        bad = self._bad.values[rows]
        new_code = code.copy()
        new_code[hard_down] = DOWN_CODE
        new_code[clean] = UP_CODE
        bad[hard_down] = True
        bad[clean] = False

        loss = state.loss_rate[rows]
        loss[hard_down] = 1.0
        loss[clean] = params.base_loss

        # ``mask.nonzero()``, not ``np.nonzero(mask)``: the wrapper adds
        # three Python-level calls to a kernel that runs every tick.
        marginal_rows = state.rows_in_insertion_order(
            marginal.nonzero()[0] + start) - start
        if marginal_rows.size:
            draws = iter(self.rng.random(marginal_rows.size).tolist())
            for row in marginal_rows.tolist():
                new_code[row], loss[row], bad[row] = self._step(
                    float(score[row]), bad[row], draws, stress)

        changed = state.rows_in_insertion_order(
            (active & (new_code != code)).nonzero()[0] + start)
        links_by_row = state.links_by_row
        for row in changed:
            links_by_row[row].set_state(now, STATE_OF[new_code[row - start]])
        # The loss column was written in place: tell the row-change feed.
        if rows.stop - start == 1:
            state.note_row(start)
        else:
            state.note_all_rows()

    def _step(self, score: float, bad: bool, draws, stress: float):
        """One active row's next ``(state code, loss rate, bad phase)``.

        A clean or hard-down score settles the row; a score in the
        marginal band takes the next of ``draws`` and moves the row's
        Gilbert-Elliott phase.  Everything is a Python float: the same
        operands in the same order as the object walk, and scalar
        Python pow, because ``10.0 ** ndarray`` is *not* bit-identical
        to the scalar power :meth:`marginal_loss` uses.
        """
        params = self.params
        if score >= params.hard_down_threshold:
            return DOWN_CODE, 1.0, True
        if score < params.marginal_threshold:
            return UP_CODE, params.base_loss, False
        draw = next(draws)
        if bad:
            bad = draw >= params.flap_b2g_per_tick
        else:
            severity = (score - params.marginal_threshold) / (
                params.hard_down_threshold - params.marginal_threshold)
            bad = draw < min(0.95, params.flap_g2b_per_tick
                             * (0.25 + severity) * stress)
        if bad:
            return DOWN_CODE, 1.0, True
        return UP_CODE, self.marginal_loss(score), False

    # -- the tick's live rows --------------------------------------------------

    def _pick_live(self, now: float) -> None:
        """Keep the rows a full pass at ``now`` leaves live, with their
        oxidation and dirt terms as Python floats."""
        params = self.params
        state = self.fabric.state
        hard_fault, ox_term, dirt_term = self._inputs()
        live = ~hard_fault & (
            (dirt_term > 0.0)
            | (self._disturbed.values[:state.n_links] > now)
            | ((ox_term >= params.marginal_threshold)
               & (ox_term < params.hard_down_threshold)))
        rows = state.rows_in_insertion_order(live.nonzero()[0])
        self._live = list(zip(rows.tolist(), ox_term[rows].tolist(),
                              dirt_term[rows].tolist()))

    def _live_pass(self, now: float) -> None:
        """The kernel on the live rows alone: the score in the kernel's
        operand order, then :meth:`_step`, skipping rows under
        maintenance like the kernel does."""
        if not self._live:
            return
        state = self.fabric.state
        params = self.params
        stress = self.environment.stress_multiplier(now)
        codes = state.state_code
        disturbed = self._disturbed.values
        scored = []
        # One batched draw per marginal row, as in the full kernel.
        marginal = 0
        for row, ox_term, dirt_term in self._live:
            if codes[row] == MAINTENANCE_CODE:
                continue
            score = ox_term + dirt_term * stress
            if disturbed[row] > now:
                score += params.disturbance_score
            score = min(score, 1.0)
            if params.marginal_threshold <= score \
                    < params.hard_down_threshold:
                marginal += 1
            scored.append((row, score))
        draws = iter(self.rng.random(marginal).tolist() if marginal else ())
        bad = self._bad.values
        loss = state.loss_rate
        links_by_row = state.links_by_row
        note_row = state.note_row
        for row, score in scored:
            code, new_loss, bad[row] = self._step(score, bad[row], draws,
                                                  stress)
            if new_loss != loss[row]:
                loss[row] = new_loss
                note_row(row)
            if code != codes[row]:
                links_by_row[row].set_state(now, STATE_OF[code])
