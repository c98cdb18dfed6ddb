"""The per-link end-face columns always equal a recompute from the faces.

Per-core deposits write the worst-core column through (``max(column,
highest new level)``) instead of re-reducing the face; every other
mutator recomputes.  Random call sequences on bound faces must keep
``cable_end_worst``, ``cable_end_scratched`` and ``recept_worst``
exactly equal to the ``EndFace`` arrays, and a deposit on the parent
after a :meth:`FabricState.fork` must leave the fork's columns alone.

A bound cable end's per-core levels live in ``cable_end_cores``: the
binding tests below hold that column to the faces through bind, unbind,
the swap-with-last of a disconnect, a cable swap, a fork, a wider face,
and every whole-face mutator.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.network import (
    Cable,
    CableKind,
    EndFace,
    Fabric,
    HallLayout,
    SwitchRole,
)

COLUMNS = ("cable_end_worst", "cable_end_scratched", "recept_worst")


def make_fabric(seed, links=2):
    layout = HallLayout(rows=1, racks_per_row=2, height_u=48)
    fabric = Fabric(layout=layout, rng=np.random.default_rng(seed))
    a, b = (fabric.add_switch(SwitchRole.TOR, radix=links,
                              rack_id=layout.rack_at(0, col).id)
            for col in range(2))
    for _ in range(links):
        fabric.connect(a.id, b.id, kind=CableKind.MPO)
    return fabric


def faces_of(link):
    """(face, column, side) for every bound face of ``link``."""
    cable = link.cable
    return [(cable.end_a, "cable_end_worst", 0),
            (cable.end_b, "cable_end_worst", 1),
            (link.transceiver_a.receptacle, "recept_worst", 0),
            (link.transceiver_b.receptacle, "recept_worst", 1)]


def assert_columns_match_faces(fabric):
    state = fabric.state
    for link in fabric.links.values():
        row = link._row
        for face, column, side in faces_of(link):
            assert getattr(state, column)[side, row] \
                == face.contamination.max()
            if column == "cable_end_worst":
                assert state.cable_end_scratched[side, row] \
                    == face.scratched.any()


amounts = st.one_of(st.just(0.0), st.just(1.0),
                    st.floats(min_value=0.0, max_value=1.5,
                              allow_nan=False))
deposit_one = st.tuples(st.just("core"), amounts,
                        st.integers(min_value=0, max_value=15))
deposit_many = st.tuples(st.just("cores"), amounts,
                         st.lists(st.integers(min_value=0, max_value=15),
                                  min_size=1, max_size=6))
deposit_all = st.tuples(st.just("all"), amounts, st.just(None))
other = st.tuples(st.sampled_from(("clean", "scratch", "replace",
                                   "fork")),
                  st.just(0.0), st.integers(min_value=0, max_value=15))
calls = st.tuples(st.integers(min_value=0, max_value=7),
                  st.one_of(deposit_one, deposit_many, deposit_all,
                            other))


@given(seed=st.integers(min_value=0, max_value=1000),
       sequence=st.lists(calls, max_size=40))
@settings(max_examples=150, deadline=None)
def test_columns_equal_recompute_after_every_call(seed, sequence):
    fabric = make_fabric(seed)
    rng = np.random.default_rng(seed)
    links = list(fabric.links.values())
    forks = []
    assert_columns_match_faces(fabric)
    for target, (op, amount, arg) in sequence:
        face, _column, _side = faces_of(links[target // 4 % len(links)])[
            target % 4]
        cores = face.core_count
        if op == "core":
            face.add_contamination(amount, cores=[arg % cores])
        elif op == "cores":
            face.add_contamination(amount,
                                   cores=[core % cores for core in arg])
        elif op == "all":
            face.add_contamination(amount)
        elif op == "clean":
            face.clean(rng, wet=bool(arg % 2), smear_probability=0.3)
        elif op == "scratch":
            face.scratch(arg % cores)
        elif op == "replace":
            face.replace()
        else:
            child = fabric.state.fork()
            forks.append((child, {name: np.array(getattr(child, name))
                                  for name in COLUMNS}))
        assert_columns_match_faces(fabric)
        for child, frozen in forks:
            for name in COLUMNS:
                assert np.array_equal(getattr(child, name), frozen[name])


def test_lower_deposit_on_another_core_keeps_the_worst():
    fabric = make_fabric(0, links=1)
    link = next(iter(fabric.links.values()))
    face = link.cable.end_b
    face.add_contamination(0.5, cores=[0])
    face.add_contamination(0.1, cores=[1, 1])
    assert fabric.state.cable_end_worst[1, link._row] == 0.5
    assert_columns_match_faces(fabric)


def test_parent_deposit_after_fork_leaves_fork_column():
    fabric = make_fabric(0, links=1)
    link = next(iter(fabric.links.values()))
    child = fabric.state.fork()
    link.cable.end_a.add_contamination(0.3, cores=[1])
    link.transceiver_b.receptacle.add_contamination(0.2, cores=[0])
    assert fabric.state.cable_end_worst[0, link._row] == 0.3
    assert fabric.state.recept_worst[1, link._row] == 0.2
    assert child.cable_end_worst[0, link._row] == 0.0
    assert child.recept_worst[1, link._row] == 0.0


def cores_of(state, link, side):
    """The face's cores as the state's column holds them."""
    face = (link.cable.end_a, link.cable.end_b)[side]
    return state.cable_end_cores[side, :face.core_count, link._row]


def dirty_cable(cable_id, cores, seed):
    """An unbound MPO cable with distinct levels on every core."""
    cable = Cable(cable_id, CableKind.MPO, 5.0, core_count=cores)
    rng = np.random.default_rng(seed)
    for face in (cable.end_a, cable.end_b):
        face.contamination = rng.uniform(0.01, 0.2, size=cores)
    return cable


def test_bind_and_unbind_round_trip_every_core():
    fabric = make_fabric(0, links=1)
    state = fabric.state
    link = next(iter(fabric.links.values()))
    cable = dirty_cable("spare", 4, seed=1)
    levels = [cable.end_a.contamination.copy(),
              cable.end_b.contamination.copy()]
    old = link.replace_cable(cable)
    for side in (0, 1):
        assert np.array_equal(cores_of(state, link, side), levels[side])
    cable.end_a.add_contamination(0.5, cores=[3])
    levels[0][3] += 0.5
    assert state.cable_end_cores[0, 3, link._row] == levels[0][3]
    # Swapping it back out copies its cores back to the face...
    link.replace_cable(old)
    for side, face in enumerate((cable.end_a, cable.end_b)):
        assert np.array_equal(face.contamination, levels[side])
    # ...which no longer reads the column.
    state.cable_end_cores[0, 3, link._row] = 0.9
    assert cable.end_a.contamination[3] == levels[0][3]


def test_disconnect_carries_the_moved_cables_cores():
    fabric = make_fabric(0, links=3)
    state = fabric.state
    first, _middle, last = fabric.links.values()
    last.cable.end_b.add_contamination(0.3, cores=[2])
    last.cable.end_a.add_contamination(0.1)
    levels = [last.cable.end_a.contamination.copy(),
              last.cable.end_b.contamination.copy()]
    row = first._row
    fabric.disconnect(first.id)
    assert last._row == row
    for side, face in enumerate((last.cable.end_a, last.cable.end_b)):
        assert np.array_equal(face.contamination, levels[side])
        assert np.array_equal(cores_of(state, last, side), levels[side])
    assert_columns_match_faces(fabric)


def test_a_cable_swap_zeroes_the_row_before_the_new_cores():
    fabric = make_fabric(0, links=1)
    state = fabric.state
    link = next(iter(fabric.links.values()))
    link.replace_cable(dirty_cable("wide", 12, seed=2))
    narrow = dirty_cable("narrow", 4, seed=3)
    levels = narrow.end_b.contamination.copy()
    link.replace_cable(narrow)
    assert not state.cable_end_cores[:, 4:, link._row].any()
    assert np.array_equal(cores_of(state, link, 1), levels)
    assert_columns_match_faces(fabric)


def test_a_fork_copies_the_core_column():
    fabric = make_fabric(0, links=1)
    state = fabric.state
    link = next(iter(fabric.links.values()))
    link.cable.end_a.add_contamination(0.2, cores=[1])
    child = state.fork()
    assert np.array_equal(child.cable_end_cores, state.cable_end_cores)
    link.cable.end_a.add_contamination(0.3, cores=[1])
    assert child.cable_end_cores[0, 1, link._row] == 0.2
    child.cable_end_cores[1, 0, link._row] = 0.7
    assert link.cable.end_b.contamination[0] == 0.0


def test_binding_a_wider_face_widens_the_column():
    fabric = make_fabric(0, links=2)
    state = fabric.state
    first, second = fabric.links.values()
    assert state.cable_end_cores.shape[1] == 4
    first.cable.end_a.add_contamination(0.4, cores=[3])
    wide = dirty_cable("wide", 12, seed=4)
    levels = wide.end_a.contamination.copy()
    second.replace_cable(wide)
    assert state.cable_end_cores.shape == (2, 12, state._capacity)
    assert first.cable.end_a.contamination[3] == 0.4
    assert np.array_equal(cores_of(state, second, 0), levels)
    assert_columns_match_faces(fabric)


def test_whole_face_mutators_write_through():
    """``clean`` (both branches), ``replace`` and an all-core deposit
    on a bound face give the levels they give an unbound one."""
    fabric = make_fabric(0, links=1)
    state = fabric.state
    link = next(iter(fabric.links.values()))
    bound = link.cable.end_a
    loose = EndFace(bound.core_count, bound.polish)
    steps = (lambda face, rng: face.add_contamination(0.05, cores=[0, 2]),
             lambda face, rng: face.add_contamination(0.3),
             lambda face, rng: face.clean(rng, smear_probability=0.0),
             lambda face, rng: face.add_contamination(0.6),
             lambda face, rng: face.clean(rng, smear_probability=1.0),
             lambda face, rng: face.replace())
    rngs = np.random.default_rng(7), np.random.default_rng(7)
    for step in steps:
        step(bound, rngs[0])
        step(loose, rngs[1])
        assert np.array_equal(cores_of(state, link, 0), loose.contamination)
        assert_columns_match_faces(fabric)
