"""Structural guards for the sweep, audit and lookup hot paths.

Costs that once grew with fabric size, or with run length, are pinned
here by counting, not by timing:

* a dust tick deposits on every end-face in one vector pass over the
  state's core column, never through ``EndFace.add_contamination`` or
  a face re-reduction (``EndFace._push_mirror``), and a steady tick
  (every factor sampled) draws one raw block and calls neither
  ``uniform`` nor ``integers``;
* bundle neighbours resolve cable→link through the columnar binding,
  so no lookup ever iterates ``fabric.links``;
* a health tick with no health-input write since the previous score
  reads none of the seven fault-flag columns (the cached inputs serve
  it);
* after a full pass, a health tick with no input write and no
  disturbance runs the vector kernel on no slice and reads only the
  live rows, and a ``disturb()`` or an input write makes the next tick
  a full pass again;
* a scoring with no vibration episode rebuilds no episode list;
* a poll after a poll whose row-change feed reported no row reads the
  state code, loss and down-since columns at no row outside its watch
  set, and a written row is re-tested alone;
* over many polls each flap event's time is read at most twice,
  however long the event stays in the window;
* the mute table is not walked before the earliest mute TTL can have
  expired, and is walked once it has;
* the safety monitor's orphan audit never iterates ``fabric.links``
  and, with a quiet feed and no row under maintenance, reads no
  ``state_code``; a check touches no history of an incident it has
  already audited to its conclusion, and a check with no drain
  outstanding never builds the in-flight order ids.

``sys.setprofile`` does not see numpy slicing, ``|``, ``~`` or
comparisons, so the first of the new savings barely shows in counted
calls; these guards are its evidence.
"""

from collections import Counter

import numpy as np
import pytest

from dcrobot.chaos import SafetyMonitor
from dcrobot.core import RepairAction
from dcrobot.core.actions import WorkOrder
from dcrobot.core.controller import Incident
from dcrobot.failures import Environment, HealthModel
from dcrobot.failures.dust import DustProcess
from dcrobot.network.endface import EndFace
from dcrobot.network.enums import LinkState
from dcrobot.telemetry import Symptom, TelemetryMonitor
from dcrobot.topology import build_fattree

from tests.chaos.test_safety_monitor import build, claim

#: The boolean columns the hard-fault mask ORs together.
FAULT_FLAGS = ("cable_damaged", "unit_hw_fault", "unit_fw_stuck",
               "port_hw_fault", "cable_end_scratched", "seated",
               "cable_attached")


@pytest.fixture
def fabric():
    return build_fattree(k=8, rng=np.random.default_rng(3)).fabric


class _CountingPCG64(np.random.PCG64):
    """PCG64 that counts its ``random_raw`` calls."""

    def random_raw(self, size=None, output=True):
        self.calls["random_raw"] += 1
        return super().random_raw(size, output)


class _CountingGenerator(np.random.Generator):
    """A generator that counts its scalar-draw calls."""

    def uniform(self, *args, **kwargs):
        self.calls["uniform"] += 1
        return super().uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return super().integers(*args, **kwargs)


def test_dust_step_makes_no_full_face_reductions(fabric, monkeypatch):
    state = fabric.state
    assert state.cleanable[:state.n_links].any()
    bit_generator = _CountingPCG64(5)
    rng = _CountingGenerator(bit_generator)
    calls = bit_generator.calls = rng.calls = Counter()
    dust = DustProcess(fabric, rng=rng)
    before = state.cable_end_worst[:, :state.n_links].copy()

    def counting(name):
        method = getattr(EndFace, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return counted

    for name in ("_push_mirror", "add_contamination"):
        monkeypatch.setattr(EndFace, name, counting(name))
    dust.step_all(0.0)  # samples every factor by the generator's calls
    assert calls["_push_mirror"] == calls["add_contamination"] == 0
    assert (state.cable_end_worst[:, :state.n_links] > before).any()
    calls.clear()
    dust.step_all(dust.tick_seconds)
    assert calls == Counter(random_raw=1)


class _NoScanDict(dict):
    """A links registry that refuses to be scanned."""

    def values(self):
        raise AssertionError("fabric.links was scanned")

    def items(self):
        raise AssertionError("fabric.links was scanned")

    def __iter__(self):
        raise AssertionError("fabric.links was scanned")


def test_bundle_neighbors_never_scan_the_links(fabric):
    links = list(fabric.links.values())
    link_of_cable = {link.cable.id: link.id for link in links}
    expected = {link.id: [link_of_cable[cable_id] for cable_id
                          in fabric.bundles.neighbors_of(link.cable.id)
                          if cable_id in link_of_cable]
                for link in links}
    assert any(expected.values())
    fabric.links = _NoScanDict(fabric.links)
    for link in links:
        got = [other.id for other in fabric.bundle_neighbor_links(link)]
        assert got == expected[link.id]


class _ReadLogged(np.ndarray):
    """A column view that logs ``(name, key)`` on every indexing read."""

    def __getitem__(self, key):
        self.log.append((self.name, key))
        item = np.ndarray.__getitem__(self, key)
        return item.view(np.ndarray) if isinstance(item, np.ndarray) \
            else item


def _log_reads(columns):
    """Wrap each ``(owner, attribute)`` column in one read log.

    Only reads through the wrapped attribute are seen: a consumer that
    re-slices the attribute per call (every kernel does) is logged.
    """
    log = []
    for owner, name in columns:
        view = getattr(owner, name).view(_ReadLogged)
        view.log, view.name = log, name
        setattr(owner, name, view)
    return log


def test_a_health_tick_without_input_writes_reads_no_fault_flags(fabric):
    health = HealthModel(fabric, Environment(),
                         rng=np.random.default_rng(5))
    health.tick_all(0.0)
    reads = _log_reads((fabric.state, name) for name in FAULT_FLAGS)
    health.tick_all(300.0)
    health.evaluate_link(next(iter(fabric.links.values())), 400.0)
    assert reads == []
    # A write moves the key: the next score re-reads every flag.
    next(iter(fabric.links.values())).transceiver_a.hw_fault = True
    health.tick_all(600.0)
    assert {name for name, _key in reads} == set(FAULT_FLAGS)


def _live_fabric(fabric):
    """Three live rows on a clean fabric: a dirty face, an oxidation
    term in the marginal band, and a disturbance."""
    links = list(fabric.links.values())
    dirty = next(link for link in links if link.cable.cleanable)
    dirty.cable.end_a.add_contamination(0.5)
    oxidized, disturbed = links[0], links[1]
    oxidized.transceiver_a.oxidation = 0.6
    health = HealthModel(fabric, Environment(),
                         rng=np.random.default_rng(5))
    health.disturb(disturbed.id, 900.0)
    rows = {fabric.state.index_of[link.id]
            for link in (dirty, oxidized, disturbed)}
    return health, rows


@pytest.fixture
def kernel_slices(monkeypatch):
    """The row slices the health kernel runs on, in call order."""
    slices = []
    evaluate = HealthModel._evaluate

    def logging(self, rows, now):
        slices.append(rows)
        return evaluate(self, rows, now)

    monkeypatch.setattr(HealthModel, "_evaluate", logging)
    return slices


def test_a_quiet_health_tick_visits_only_the_live_rows(fabric,
                                                       kernel_slices):
    health, live = _live_fabric(fabric)
    health.tick_all(0.0)
    kernel_slices.clear()
    state = fabric.state
    reads = _log_reads(((state, "state_code"), (state, "loss_rate"),
                        (health._bad, "values"),
                        (health._disturbed, "values")))
    for tick in range(1, 6):
        health.tick_all(300.0 * tick)
    assert kernel_slices == []
    assert reads and {key for _name, key in reads} == live


def test_a_disturbance_or_an_input_write_brings_a_full_pass(
        fabric, kernel_slices):
    health, _live = _live_fabric(fabric)
    full = slice(0, fabric.state.n_links)
    links = list(fabric.links.values())
    passes = []
    for tick, write in enumerate((
            None, None,
            lambda: health.disturb(links[5].id, 2000.0), None,
            lambda: setattr(links[7].transceiver_b, "oxidation", 0.1),
            None)):
        if write is not None:
            write()
        kernel_slices.clear()
        health.tick_all(300.0 * tick)
        passes.append(kernel_slices == [full])
    assert passes == [True, False, True, False, True, False]


def test_a_scoring_without_vibration_rebuilds_no_episode_list(fabric):
    health, _live = _live_fabric(fabric)
    environment = health.environment
    episodes = environment._vibrations
    for tick in range(3):
        health.tick_all(300.0 * tick)
    health.impairment_score(next(iter(fabric.links.values())), 900.0)
    assert environment._vibrations is episodes
    # An episode is summed while it lasts, then pruned.
    environment.add_vibration(900.0, 0.5, 600.0)
    assert environment.vibration_level(1000.0) == 0.5
    assert environment.vibration_level(1500.0) == 0.0
    assert environment._vibrations == []


#: The columns the poll's down and loss predicates read.
POLLED = ("state_code", "loss_rate", "down_since")


def _positions(key, length):
    """The positions one logged read touched: an int key is one, a
    slice its range (a whole-column predicate reads every row)."""
    if isinstance(key, slice):
        return range(*key.indices(length))
    return (int(key),)


def _read_rows(reads, n_links):
    """The rows a read log touched."""
    return {row for _name, key in reads
            for row in _positions(key, n_links)}


def test_a_quiet_poll_reads_only_the_watched_rows(fabric):
    monitor = TelemetryMonitor(fabric)
    state = fabric.state
    links = list(fabric.links.values())
    down, lossy, written = links[3], links[40], links[90]
    down.set_state(0.0, LinkState.DOWN)
    lossy.loss_rate = 1e-3
    monitor.poll_all(60.0)  # the first poll rescans
    watched = {state.index_of[link.id] for link in (down, lossy)}
    reads = _log_reads((state, name) for name in POLLED)
    for poll in range(2, 8):
        monitor.poll_all(60.0 * poll)
    assert _read_rows(reads, state.n_links) <= watched
    # A written row is re-tested alone, and joins the watch set.
    written.set_state(500.0, LinkState.DOWN)
    reads.clear()
    monitor.poll_all(540.0)
    assert _read_rows(reads, state.n_links) \
        <= watched | {state.index_of[written.id]}
    events = monitor.poll_all(1500.0)
    assert [(event.link_id, event.symptom) for event in events] \
        == [(down.id, Symptom.LINK_DOWN), (written.id, Symptom.LINK_DOWN)]


def test_a_poll_detects_flapping_at_the_threshold_th_event(fabric):
    monitor = TelemetryMonitor(fabric)
    threshold = monitor.detector.params.flap_transitions
    link = next(iter(fabric.links.values()))
    states = (LinkState.DOWN, LinkState.UP) * threshold
    for index in range(threshold - 1):
        link.set_state(60.0 * (index + 1), states[index])
    assert monitor.poll_all(60.0 * threshold) == []
    # The threshold-th event in the window: the poll reports.
    link.set_state(60.0 * threshold, states[threshold - 1])
    events = monitor.poll_all(60.0 * (threshold + 1))
    assert [(event.link_id, event.symptom) for event in events] \
        == [(link.id, Symptom.LINK_FLAPPING)]


def test_each_flap_time_is_read_at_most_twice(fabric):
    monitor = TelemetryMonitor(fabric)
    state = fabric.state
    links = list(fabric.links.values())[:12]
    monitor.poll_all(0.0)  # the first poll builds the (empty) window
    log = _log_reads([(state, "_flap_times")])
    reads = []
    rng = np.random.default_rng(11)
    window = monitor.detector.params.flap_window_seconds
    now = 0.0
    for poll in range(1, 200):  # 200 polls over 5.5 windows
        end = 100.0 * poll
        while now < end:
            now += float(rng.exponential(40.0))
            link = links[int(rng.integers(len(links)))]
            link.set_state(now, LinkState.UP if link.state
                           is LinkState.DOWN else LinkState.DOWN)
        log.clear()  # the log's own appends read its tail
        monitor.poll_all(end)
        reads.extend(log)
    events = state._flap_len
    assert events > 400 and now > 5 * window
    per_position = Counter(position for _name, key in reads
                           for position in _positions(key, events))
    assert max(per_position.values()) <= 2


class _IterLogged(dict):
    """A mute table that logs every walk over itself."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def items(self):
        self.log.append("items")
        return super().items()

    def values(self):
        self.log.append("values")
        return super().values()

    def __iter__(self):
        self.log.append("iter")
        return super().__iter__()


def test_the_mute_table_is_walked_once_a_ttl_can_expire(fabric):
    monitor = TelemetryMonitor(fabric, mute_ttl_seconds=1200.0)
    links = list(fabric.links.values())
    walks = []
    monitor._muted = _IterLogged(monitor._muted, walks)
    monitor.mute(links[0].id, 100.0)
    monitor.mute(links[1].id, 400.0)
    for poll in range(1, 22):  # 60 s .. 1260 s
        monitor.poll_all(60.0 * poll)
        if 60.0 * poll < 1300.0:
            assert walks == [], poll
    # The earliest TTL has not come due by 1260 s; at 1320 s it has.
    monitor.poll_all(1320.0)
    assert walks
    assert monitor.muted_links() == [links[1].id]
    # The walk reset the bound to the remaining mute: quiet again...
    walks.clear()
    monitor.poll_all(1380.0)
    assert walks == []
    # ...until that one expires.
    monitor.poll_all(1600.0)
    assert walks and monitor.muted_links() == []


def test_a_quiet_orphan_check_reads_no_state_code(world):
    _controller, safety, _stub = build(world)
    safety.check(0.0)  # the first check rescans
    reads = _log_reads([(world.fabric.state, "state_code")])
    safety.check(600.0)
    safety.check(1200.0)
    assert reads == []
    # A link taken into maintenance is re-tested alone and reported.
    orphan = world.links[2]
    world.health.begin_maintenance(orphan, 1300.0)
    safety.check(1800.0)
    assert {key for _name, key in reads} \
        == {world.fabric.state.index_of[orphan.id]}
    assert [(violation.kind, violation.target)
            for violation in safety.violations] \
        == [(SafetyMonitor.MAINTENANCE_ORPHAN, orphan.id)]


def test_the_orphan_audit_never_scans_the_links(world):
    controller, safety, _stub = build(world)
    orphan, owned = world.links[0], world.links[1]
    world.health.begin_maintenance(orphan, 0.0)
    world.health.begin_maintenance(owned, 0.0)
    claim(controller, owned)
    world.fabric.links = _NoScanDict(world.fabric.links)
    safety.check(0.0)
    assert [(violation.kind, violation.target)
            for violation in safety.violations] \
        == [(SafetyMonitor.MAINTENANCE_ORPHAN, orphan.id)]


class _TouchLogged(list):
    """An attempt history that logs every read of itself."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __len__(self):
        self.log.append(self)
        return super().__len__()

    def __getitem__(self, key):
        self.log.append(self)
        return super().__getitem__(key)

    def __iter__(self):
        self.log.append(self)
        return super().__iter__()


def test_a_check_leaves_concluded_audited_histories_alone(world):
    controller, safety, _stub = build(world)
    touched = []
    for index, link in enumerate(world.links):
        incident = Incident(link_id=link.id, opened_at=0.0, symptom="x")
        incident.attempt_history = _TouchLogged(
            [(0.0, RepairAction.RESEAT), (10.0, RepairAction.CLEAN)],
            touched)
        concluded = (controller.closed_incidents if index % 2
                     else controller.unresolved_incidents)
        concluded.append(incident)
    safety.check(20.0)
    assert touched  # the first check audits each once...
    assert safety._audited == {}  # ...keeps no cursor for them...
    touched.clear()
    safety.check(30.0)
    assert touched == []  # ...and the next check leaves them alone
    assert safety.violations == []


def test_a_check_without_drains_builds_no_in_flight_set(world, monkeypatch):
    controller, safety, _stub = build(world)
    claim(controller, world.links[1])  # in flight, but drains nothing
    built = []
    inflight = controller.inflight_order_ids

    def counting():
        built.append(True)
        return inflight()

    monkeypatch.setattr(controller, "inflight_order_ids", counting)
    safety.check(0.0)
    safety.check(600.0)
    assert built == []
    # An outstanding drain: the set is built once per check.
    order = WorkOrder(link_id=world.links[2].id,
                      action=RepairAction.RESEAT, created_at=0.0)
    controller.scheduler._drained_for_order[order.order_id] = \
        [world.links[2].id]
    safety.check(1200.0)
    assert built == [True]
    assert [violation.kind for violation in safety.violations] \
        == [SafetyMonitor.DRAIN_ORPHAN]
