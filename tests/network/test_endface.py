"""Unit tests for fiber end-face contamination, inspection, cleaning."""

import numpy as np
import pytest

from dcrobot.network import (
    INSPECTION_PASS_THRESHOLD,
    EndFace,
    EndFacePolish,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_new_endface_is_clean():
    face = EndFace(core_count=8)
    assert face.worst_contamination == 0.0
    assert not face.impaired
    assert face.passes_inspection()


def test_core_count_validation():
    with pytest.raises(ValueError):
        EndFace(core_count=0)


def test_initial_contamination_validation():
    with pytest.raises(ValueError):
        EndFace(initial_contamination=1.5)


def test_add_contamination_all_cores():
    face = EndFace(core_count=4)
    face.add_contamination(0.3)
    assert np.allclose(face.contamination, 0.3)


def test_add_contamination_specific_cores():
    face = EndFace(core_count=4)
    face.add_contamination(0.5, cores=[1, 3])
    assert face.contamination[0] == 0.0
    assert face.contamination[1] == 0.5
    assert face.contamination[2] == 0.0
    assert face.contamination[3] == 0.5


def test_contamination_saturates_at_one():
    face = EndFace(core_count=1)
    face.add_contamination(0.8)
    face.add_contamination(0.8)
    assert face.worst_contamination == 1.0


def test_negative_contamination_rejected():
    face = EndFace()
    with pytest.raises(ValueError):
        face.add_contamination(-0.1)


def test_inspection_fails_dirty_core():
    face = EndFace(core_count=8)
    face.add_contamination(INSPECTION_PASS_THRESHOLD + 0.1, cores=[5])
    results = face.inspect()
    assert results[5] is False
    assert sum(results) == 7
    assert not face.passes_inspection()


def test_inspection_fails_scratched_core():
    face = EndFace(core_count=2)
    face.scratch(0)
    assert face.inspect() == [False, True]
    assert face.impaired


def test_inspection_false_negative(rng):
    face = EndFace(core_count=1)
    face.add_contamination(0.9)
    # With rate 1.0, the dirty core always passes (perception miss).
    assert face.inspect(false_negative_rate=1.0, rng=rng) == [True]


def test_clean_reduces_contamination(rng):
    face = EndFace(core_count=8)
    face.add_contamination(0.8)
    face.clean(rng, smear_probability=0.0)
    assert face.worst_contamination < 0.2


def test_wet_clean_stronger_than_dry():
    face_dry = EndFace(core_count=4)
    face_wet = EndFace(core_count=4)
    face_dry.add_contamination(1.0)
    face_wet.add_contamination(1.0)
    face_dry.clean(np.random.default_rng(3), wet=False,
                   smear_probability=0.0)
    face_wet.clean(np.random.default_rng(3), wet=True,
                   smear_probability=0.0)
    assert face_wet.worst_contamination < face_dry.worst_contamination


def test_repeated_cleaning_converges_to_pass(rng):
    face = EndFace(core_count=8)
    face.add_contamination(1.0)
    for _ in range(6):
        if face.passes_inspection():
            break
        face.clean(rng, wet=True, smear_probability=0.0)
    assert face.passes_inspection()


def test_smear_redistributes_but_does_not_create_dirt():
    face = EndFace(core_count=8)
    face.add_contamination(0.4, cores=[0])
    before = face.contamination.sum()
    face.clean(np.random.default_rng(0), smear_probability=1.0)
    assert face.contamination.sum() <= before + 1e-9


def test_clean_does_not_fix_scratches(rng):
    face = EndFace(core_count=1)
    face.scratch(0)
    face.clean(rng, smear_probability=0.0)
    assert not face.passes_inspection()


def test_replace_restores_pristine_state():
    face = EndFace(core_count=4)
    face.add_contamination(1.0)
    face.scratch(2)
    face.replace()
    assert face.worst_contamination == 0.0
    assert not face.scratched.any()
    assert face.passes_inspection()


def test_effectiveness_validation(rng):
    face = EndFace()
    with pytest.raises(ValueError):
        face.clean(rng, effectiveness=0.0)


def test_apc_polish_angle():
    face = EndFace(polish=EndFacePolish.APC)
    # The polish's value is its angle in degrees.
    assert face.polish.value == 8.0
    assert EndFacePolish.UPC.value == 0.0
