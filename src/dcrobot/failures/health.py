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

The :class:`HealthModel` re-evaluates every link in one array sweep per
tick (:meth:`HealthModel.tick_all`); maintenance executors consult it
after repairs, and the cascade model injects disturbances through it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

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
        #: Gilbert-Elliott phase for links not bound to the fabric's
        #: columnar state (links ``disconnect`` has unbound); bound
        #: links keep theirs in the registered column below.
        self._bad_state: Dict[str, bool] = {}
        self._disturbed_until: Dict[str, float] = {}
        self._bad = fabric.state.add_link_column(False)

    # -- Gilbert-Elliott phase storage ---------------------------------------

    def _bad_row(self, link: Link) -> Optional[int]:
        if link._fs is self.fabric.state:
            return link._row
        return None

    def _get_bad(self, link: Link) -> bool:
        row = self._bad_row(link)
        if row is None:
            return self._bad_state.get(link.id, False)
        return bool(self._bad.values[row])

    def _set_bad(self, link: Link, value: bool) -> None:
        row = self._bad_row(link)
        if row is None:
            self._bad_state[link.id] = value
        else:
            self._bad.values[row] = value

    # -- disturbance (cascade hook) ------------------------------------------

    def disturb(self, link_id: str, until: float) -> None:
        """Mark a link physically disturbed until the given time."""
        current = self._disturbed_until.get(link_id, 0.0)
        self._disturbed_until[link_id] = max(current, until)

    def is_disturbed(self, link_id: str, now: float) -> bool:
        return self._disturbed_until.get(link_id, 0.0) > now

    # -- scoring -----------------------------------------------------------------

    def impairment_score(self, link: Link, now: float) -> float:
        """Physical impairment in [0, 1]; 1.0 means hard-down faults."""
        if self._has_hard_fault(link):
            return 1.0
        if not self._physically_connected(link):
            return 1.0

        score = 0.0
        oxidation = max(link.transceiver_a.oxidation,
                        link.transceiver_b.oxidation)
        score += max(0.0, oxidation - self.params.oxidation_onset)

        dirt = link.cable.worst_contamination
        for unit in link.transceivers():
            if unit.receptacle is not None:
                dirt = max(dirt, unit.receptacle.worst_contamination)
        stress = self.environment.stress_multiplier(now)
        score += max(0.0, dirt - IMPAIRMENT_THRESHOLD) * stress

        if self.is_disturbed(link.id, now):
            score += self.params.disturbance_score
        return float(min(score, 1.0))

    def _has_hard_fault(self, link: Link) -> bool:
        if link.cable.damaged:
            return True
        for unit in link.transceivers():
            if unit.hw_fault or unit.firmware_stuck:
                return True
        for port in link.ports():
            if port.hw_fault:
                return True
        for end in (link.cable.end_a, link.cable.end_b):
            if end is not None and end.scratched.any():
                return True
        return False

    def _physically_connected(self, link: Link) -> bool:
        if not (link.transceiver_a.seated and link.transceiver_b.seated):
            return False
        return link.cable.attached_a and link.cable.attached_b

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
        """Re-derive one link's state from its physical condition."""
        if link.state is LinkState.MAINTENANCE:
            return
        params = self.params
        score = self.impairment_score(link, now)

        if score >= params.hard_down_threshold:
            link.loss_rate = 1.0
            link.set_state(now, LinkState.DOWN)
            self._set_bad(link, True)
            return

        if score < params.marginal_threshold:
            link.loss_rate = params.base_loss
            link.set_state(now, LinkState.UP)
            self._set_bad(link, False)
            return

        # Marginal band: Gilbert-Elliott oscillation.
        severity = ((score - params.marginal_threshold)
                    / (params.hard_down_threshold
                       - params.marginal_threshold))
        stress = self.environment.stress_multiplier(now)
        in_bad = self._get_bad(link)
        if in_bad:
            if self.rng.random() < params.flap_b2g_per_tick:
                in_bad = False
        else:
            p_fail = min(0.95, params.flap_g2b_per_tick
                         * (0.25 + severity) * stress)
            if self.rng.random() < p_fail:
                in_bad = True
        self._set_bad(link, in_bad)
        if in_bad:
            link.loss_rate = 1.0
            link.set_state(now, LinkState.DOWN)
        else:
            # Good phase of a marginal link: carries traffic with elevated
            # loss.  The repeated UP<->DOWN transitions are what the flap
            # detector in telemetry classifies as "flapping".
            link.loss_rate = self.marginal_loss(score)
            link.set_state(now, LinkState.UP)

    def begin_maintenance(self, link: Link, now: float) -> None:
        """Administratively take a link out of service for repair."""
        link.set_state(now, LinkState.MAINTENANCE)
        link.loss_rate = 1.0

    def release_from_maintenance(self, link: Link, now: float) -> None:
        """Return a link to service and immediately re-derive its state."""
        link.set_state(now, LinkState.UP)
        self._set_bad(link, False)
        self.evaluate_link(link, now)

    # -- vectorized sweep ------------------------------------------------------

    def tick_all(self, now: float) -> None:
        """Re-evaluate every link in one array sweep.

        Bit-identical to ``health_tick`` in ``tests/oracles/sweeps.py``,
        which calls :meth:`evaluate_link` on every link in
        ``fabric.links`` order: scores and masks are computed
        columnarily, the Gilbert-Elliott draws are batched in that order
        (``rng.random(k)`` consumes the stream exactly like ``k``
        sequential scalar draws), and the good-phase marginal loss is
        computed with scalar Python pow over the (small) marginal subset
        because ``10.0 ** ndarray`` is *not* bit-identical to the scalar
        power :meth:`marginal_loss` uses.
        """
        state = self.fabric.state
        n = state.n_links
        if n == 0:
            return
        params = self.params

        code = state.state_code[:n]
        active = code != MAINTENANCE_CODE
        hard_fault = (
            state.cable_damaged[:n]
            | state.unit_hw_fault[0, :n] | state.unit_hw_fault[1, :n]
            | state.unit_fw_stuck[0, :n] | state.unit_fw_stuck[1, :n]
            | state.port_hw_fault[0, :n] | state.port_hw_fault[1, :n]
            | state.cable_end_scratched[0, :n]
            | state.cable_end_scratched[1, :n]
            | ~state.seated[0, :n] | ~state.seated[1, :n]
            | ~state.cable_attached[0, :n] | ~state.cable_attached[1, :n])

        stress = self.environment.stress_multiplier(now)
        oxidation = np.maximum(state.ox[0, :n], state.ox[1, :n])
        score = np.maximum(0.0, oxidation - params.oxidation_onset)
        dirt = np.maximum(
            np.maximum(state.cable_end_worst[0, :n],
                       state.cable_end_worst[1, :n]),
            np.maximum(state.recept_worst[0, :n],
                       state.recept_worst[1, :n]))
        score = score + np.maximum(0.0, dirt - IMPAIRMENT_THRESHOLD) * stress
        for link_id, until in self._disturbed_until.items():
            if until > now:
                row = state.index_of.get(link_id)
                if row is not None:
                    score[row] += params.disturbance_score
        score = np.minimum(score, 1.0)
        score[hard_fault] = 1.0

        hard_down = active & (score >= params.hard_down_threshold)
        clean = active & (score < params.marginal_threshold)
        marginal = active & ~hard_down & ~clean

        bad = self._bad.values
        new_code = code.copy()
        new_code[hard_down] = DOWN_CODE
        new_code[clean] = UP_CODE
        bad[:n][hard_down] = True
        bad[:n][clean] = False

        loss = state.loss_rate[:n]
        loss[hard_down] = 1.0
        loss[clean] = params.base_loss

        marginal_rows = state.rows_in_insertion_order(
            np.nonzero(marginal)[0])
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
            np.nonzero(active & (new_code != code))[0])
        links_by_row = state.links_by_row
        for row in changed:
            links_by_row[row].set_state(now, STATE_OF[new_code[row]])
