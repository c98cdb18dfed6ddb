"""The dust kernel's raw-block replay, held to numpy itself.

``DustProcess.step_all`` replays a steady tick's ``uniform`` and
``integers`` draws from one ``random_raw`` block through numpy's own
PCG64 transforms.  Two fabrics built from one seed, with separable
cables of 1, 2, 4, 8 and 12 cores and an integrated one, run the kernel
and the per-link oracle (``tests.oracles.sweeps.dust_tick``, which calls
the generator itself); after every tick every face's per-core
contamination, ``cable_end_worst``, ``input_writes`` and the whole
``bit_generator.state`` dict must agree.  The cases reach what a
steady tick alone does not: a zero dust rate, a 32-bit half left
buffered by a foreign draw, a cable swapped in between ticks, and a
Lemire rejection.
"""

import numpy as np
import pytest

from dcrobot.failures.dust import DustProcess
from dcrobot.network import Cable, CableKind, Fabric, HallLayout, SwitchRole

from tests.oracles import sweeps

CORES = (1, 2, 4, 8, 12)
TICK_SECONDS = 6 * 3600.0
#: High enough that hot cables reach the 1.0 clip within a few ticks.
RATE = 0.5
#: PCG64's 128-bit LCG multiplier.
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
#: A raw draw whose low half makes ``integers(12)`` reject (a zero
#: product), so Lemire takes the high half: 0xdeadbeef * 12 >> 32 = 10.
REJECTED_RAW = 0xDEADBEEF00000000


def build(seed, rate=RATE, tick_seconds=TICK_SECONDS):
    """One cable per core count in ``CORES``, in that order, then a DAC
    (not cleanable: no draws); and a dust process on ``seed + 1``."""
    layout = HallLayout(rows=1, racks_per_row=2, height_u=48)
    fabric = Fabric(layout=layout, rng=np.random.default_rng(seed))
    a, b = (fabric.add_switch(SwitchRole.TOR, radix=len(CORES) + 1,
                              rack_id=layout.rack_at(0, col).id)
            for col in range(2))
    for cores in CORES:
        link = fabric.connect(a.id, b.id, kind=CableKind.MPO)
        link.replace_cable(Cable(f"{link.cable.id}-{cores}", CableKind.MPO,
                                 link.cable.length_m, core_count=cores))
    fabric.connect(a.id, b.id, kind=CableKind.DAC)
    dust = DustProcess(fabric, mean_rate_per_day=rate,
                       tick_seconds=tick_seconds,
                       rng=np.random.default_rng(seed + 1))
    return dust


def faces(dust):
    return [end for link in dust.fabric.links.values()
            for end in (link.cable.end_a, link.cable.end_b)
            if end is not None]


def assert_same(kernel, oracle):
    assert kernel.rng.bit_generator.state == oracle.rng.bit_generator.state
    ours, theirs = kernel.fabric.state, oracle.fabric.state
    n = ours.n_links
    assert np.array_equal(ours.cable_end_worst[:, :n],
                          theirs.cable_end_worst[:, :n])
    assert ours.input_writes == theirs.input_writes
    mine, expected = faces(kernel), faces(oracle)
    assert len(mine) == len(expected)
    for ours_face, their_face in zip(mine, expected):
        assert np.array_equal(ours_face.contamination,
                              their_face.contamination)


def run(ticks, before=None, seed=3, **world):
    """Tick a kernel world and an oracle world side by side, calling
    ``before(tick, dust)`` on each before each tick."""
    kernel, oracle = build(seed, **world), build(seed, **world)
    for tick in range(ticks):
        now = tick * kernel.tick_seconds
        if before is not None:
            before(tick, kernel)
            before(tick, oracle)
        kernel.step_all(now)
        sweeps.dust_tick(oracle, now)
        assert_same(kernel, oracle)
    return kernel, oracle


def test_steady_ticks_match_the_generator():
    kernel, _oracle = run(12)
    levels = np.concatenate([face.contamination for face in faces(kernel)])
    assert levels.max() == 1.0  # the clip was reached
    assert faces(kernel)[0].contamination[0] > 0.0  # and a 1-core face


def test_a_zero_rate_draws_uniforms_and_no_cores():
    kernel, _oracle = run(4, rate=0.0)
    assert all(not face.contamination.any() for face in faces(kernel))


def test_a_buffered_half_from_a_foreign_draw_is_used_first():
    """Odd ticks start with a half buffered by a foreign ``integers``
    call; every cable here draws an even number of halves, so the even
    ticks after them start buffered too."""
    def foreign(tick, dust):
        if tick % 2:
            dust.rng.integers(5)
            if not dust.rng.bit_generator.state["has_uint32"]:
                dust.rng.integers(5)

    run(8, foreign)


def test_a_cable_swapped_in_is_drawn_at_its_place():
    """The 4-core cable gives way to a 16-core one (no factor yet, and
    wider than any face bound so far) between ticks."""
    def swap(tick, dust):
        if tick == 3:
            link = list(dust.fabric.links.values())[2]
            link.replace_cable(Cable(f"{link.cable.id}-wide", CableKind.MPO,
                                     link.cable.length_m, core_count=16))

    kernel, _oracle = run(7, swap)
    assert kernel.fabric.state.cable_end_cores.shape[1] == 16


def crafted_state(inc, ahead, buffered=0, raw=REJECTED_RAW):
    """A PCG64 state whose raw draw number ``ahead`` (from 0) is
    ``raw``, with ``buffered`` halves waiting: the post-step state
    ``raw`` has its rotation bits (the top six) and its high word
    clear, so its output is its low word; each step back is
    ``(post - inc) * mult^-1``."""
    state = raw
    inverse = pow(MULTIPLIER, -1, 2 ** 128)
    for _ in range(ahead + 1):
        state = (state - inc) * inverse % 2 ** 128
    return {"bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": buffered, "uinteger": 0x12345678}


@pytest.mark.parametrize("buffered", [0, 1])
def test_a_lemire_rejection_is_replayed_exactly(buffered):
    """In a steady tick the raws go: the 1-core cable's uniform, raw 0;
    the 2-, 4- and 8-core cables' uniforms and one raw whose halves
    feed the next two 32-bit draws, raws 1-6; the 12-core cable's
    uniform, raw 7.  Its ends then draw the low half of raw 8 (end a)
    if the tick began with nothing buffered, or the high half of raw 6
    and the low half of raw 8 (end b) if it began with a half
    buffered; either way the replay stops at that cable with the
    buffer numpy would hold there."""
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    crafted = crafted_state(inc, ahead=8, buffered=buffered)
    probe = np.random.PCG64()
    probe.state = crafted
    assert int(probe.random_raw(9)[8]) == REJECTED_RAW
    probe.state = crafted_state(inc, ahead=0)
    assert np.random.Generator(probe).integers(12) == 10

    rejected_face = 8 + buffered
    before = {}

    def force(tick, dust):
        if tick == 2:
            dust.rng.bit_generator.state = crafted
            before[dust] = faces(dust)[rejected_face].contamination.copy()

    kernel, oracle = run(3, force)
    for dust in (kernel, oracle):
        face = faces(dust)[rejected_face]
        assert face.core_count == 12
        # Tick 2's deposit went to core 10, not to core 0, the pick of
        # the rejected low half.
        assert np.flatnonzero(
            face.contamination > before[dust]).tolist() == [10]


def test_an_amount_that_underflows_draws_no_cores():
    """At the smallest subnormal rate, a uniform of exactly 0.5 (a raw
    draw of 0, here raw 1: the 2-core cable's) rounds that cable's
    amount to 0.0, so the loop draws none of its cores; the replay,
    which foresaw a positive amount, must stop at that cable."""
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    zero = crafted_state(inc, ahead=1, raw=0)
    before = {}

    def force(tick, dust):
        if tick == 1:
            cable = list(dust.fabric.links.values())[1].cable
            assert cable.core_count == 2
            assert dust.mean_rate_per_day * dust.factor_for(cable.id) > 0
            dust.rng.bit_generator.state = zero
            before[dust] = cable.end_a.contamination.copy()

    kernel, oracle = run(2, force, seed=4, rate=5e-324,
                         tick_seconds=86400.0)
    for dust in (kernel, oracle):
        assert np.array_equal(faces(dust)[2].contamination, before[dust])


def test_another_bit_generator_is_refused():
    fabric = build(0).fabric
    with pytest.raises(TypeError):
        DustProcess(fabric, rng=np.random.Generator(np.random.MT19937(0)))
