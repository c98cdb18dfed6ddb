"""Structural guards for the dust and bundle-neighbour hot paths.

Two costs that once grew with fabric size are pinned here by counting,
not by timing, on a k=8 fat tree:

* a dust tick deposits one core per end-face, which can only raise the
  worst core, so it writes the column through and never re-reduces a
  face via ``EndFace._push_mirror``;
* bundle neighbours resolve cable→link through the columnar binding,
  so no lookup ever iterates ``fabric.links``.
"""

import numpy as np
import pytest

from dcrobot.failures.dust import DustProcess
from dcrobot.network.endface import EndFace
from dcrobot.topology import build_fattree


@pytest.fixture
def fabric():
    return build_fattree(k=8, rng=np.random.default_rng(3)).fabric


def test_dust_step_makes_no_full_face_reductions(fabric, monkeypatch):
    state = fabric.state
    assert state.cleanable[:state.n_links].any()
    dust = DustProcess(fabric, rng=np.random.default_rng(5))
    before = state.cable_end_worst[:, :state.n_links].copy()
    calls = []
    push_mirror = EndFace._push_mirror

    def counting(self):
        calls.append(self)
        return push_mirror(self)

    monkeypatch.setattr(EndFace, "_push_mirror", counting)
    dust.step_all(0.0)
    assert calls == []
    assert (state.cable_end_worst[:, :state.n_links] > before).any()


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
