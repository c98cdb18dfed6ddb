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
rows of the fabric's columnar state.  :meth:`HealthModel.tick_all`
runs it on every row once per tick; the event-time callers (fault
injection, the cascade, repair verification, release from
maintenance) run it on the link's one row through
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
    """Evaluates and drives the operational state of every link."""

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
        """Re-evaluate every link: the one kernel, on all rows at once.

        :meth:`evaluate_link` runs the same kernel on one row.  Both are
        bit-identical to the per-link object walk the kernel replaced,
        now the test oracle in ``tests/oracles/sweeps.py``
        (``health_tick`` evaluates every link in ``fabric.links`` order).
        """
        self._evaluate(slice(0, self.fabric.state.n_links), now)

    # -- the kernel ------------------------------------------------------------

    def _scores(self, rows: slice, now: float,
                stress: float) -> np.ndarray:
        """Impairment scores of a contiguous row range, in [0, 1].

        The terms are added in the order the object walk adds them, so
        every score is the same float.
        """
        state = self.fabric.state
        params = self.params
        hard_fault = (
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
        score = np.maximum(0.0, oxidation - params.oxidation_onset)
        dirt = np.maximum(
            np.maximum(state.cable_end_worst[0, rows],
                       state.cable_end_worst[1, rows]),
            np.maximum(state.recept_worst[0, rows],
                       state.recept_worst[1, rows]))
        score = score + np.maximum(0.0, dirt - IMPAIRMENT_THRESHOLD) * stress
        score[self._disturbed.values[rows] > now] += params.disturbance_score
        score = np.minimum(score, 1.0)
        score[hard_fault] = 1.0
        return score

    def _evaluate(self, rows: slice, now: float) -> None:
        """Re-derive the state of a contiguous row range.

        ``rows`` is a slice, so every column below is a view.  The
        Gilbert-Elliott draws are batched in ``fabric.links`` order
        (``rng.random(k)`` consumes the stream exactly like ``k``
        sequential scalar draws), and the good-phase marginal loss is
        computed with scalar Python pow over the (small) marginal subset
        because ``10.0 ** ndarray`` is *not* bit-identical to the scalar
        power :meth:`marginal_loss` uses.
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

        marginal_rows = state.rows_in_insertion_order(
            np.nonzero(marginal)[0] + start) - start
        if marginal_rows.size:
            draws = self.rng.random(marginal_rows.size)
            severity = ((score[marginal_rows] - params.marginal_threshold)
                        / (params.hard_down_threshold
                           - params.marginal_threshold))
            p_fail = np.minimum(0.95, params.flap_g2b_per_tick
                                * (0.25 + severity) * stress)
            was_bad = bad[marginal_rows]
            now_bad = np.where(was_bad,
                               draws >= params.flap_b2g_per_tick,
                               draws < p_fail)
            bad[marginal_rows] = now_bad
            new_code[marginal_rows] = np.where(now_bad, DOWN_CODE, UP_CODE)
            loss[marginal_rows] = 1.0
            for row, row_bad in zip(marginal_rows, now_bad):
                if not row_bad:
                    loss[row] = self.marginal_loss(float(score[row]))

        changed = state.rows_in_insertion_order(
            np.nonzero(active & (new_code != code))[0] + start)
        links_by_row = state.links_by_row
        for row in changed:
            links_by_row[row].set_state(now, STATE_OF[new_code[row - start]])
