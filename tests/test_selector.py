from itertools import product

import pytest

from conftest import records
from bairekit.scheme import VIOLATED, Window
from bairekit.selector import (PrefixMap, _stem_class_words,
                               basic_members, pi_space_probe, preset_maps,
                               stem_class_image)
from bairekit.seq import BranchRule
from bairekit.suites import (RunConfig, _all_prefix_maps, _subsets,
                             suite_selectors)

TWO = preset_maps()["two"]       # depth 1: stem (0,) -> 0, anything else -> 1
THREE = preset_maps()["three"]   # depth 2 over {0,1}


def test_prefix_map_validation():
    with pytest.raises(ValueError):
        PrefixMap.build([0, 1, 2], 1, (0,), {(0,): 0}, 1)  # misses point 2
    with pytest.raises(ValueError):
        PrefixMap((0, 1), 1, (0,), (((1,), 0),), 1)  # stem off the alphabet


def test_prefix_map_resolution_and_image():
    assert TWO.image(()) == {0, 1}
    assert TWO.image((0,)) == {0}
    assert TWO.image((7,)) == {1}
    assert TWO.resolve((0, 5, 5)) == 0
    assert TWO.resolve(BranchRule.constant(3).prefix(TWO.depth)) == 1
    assert THREE.image((1,)) == {0, 1, 2}
    assert THREE.image((1, 0)) == {2}
    assert THREE.image((1, 0, 9)) == {2}


def _one_u_image_identity(pm: PrefixMap, u: frozenset[int], a) -> bool:
    """The one-``u`` form of the image identity, kept as the reference: image
    of (preimage of ``u``) meet the cylinder at ``a`` versus ``u`` meet the
    cylinder image, the left side by brute enumeration of stem classes."""
    seen = {pm.resolve(w) for w in _stem_class_words(pm, a)}
    return u & seen == u & pm.image(a)


def _lossy_image(image):
    """An image that loses the default point of the stems shorter than the
    map depth; the brute side still reaches it through a fresh letter."""
    def lossy(self, a):
        out = image(self, a)
        return out - {self.default} if len(a) < self.depth else out
    return lossy


def _suite_maps():
    """Every map the ``selectors`` suite checks, in its order."""
    return [pm for n_points in range(1, 5) for depth in (1, 2)
            for alphabet in ((0,), (0, 1))
            for pm in _all_prefix_maps(n_points, depth, alphabet)]


@pytest.mark.parametrize("lossy", [False, True])
def test_one_image_decision_matches_the_one_u_reference(monkeypatch, lossy):
    """The suite's one set equality per stem flags exactly the stems at
    which some ``u`` breaks the one-``u`` identity, on every map and stem
    the suite enumerates."""
    if lossy:
        monkeypatch.setattr(PrefixMap, "image", _lossy_image(PrefixMap.image))
    stems = list(Window(2, 3).nodes())
    flagged = []
    for pm in _suite_maps():
        subsets = _subsets(pm.points)
        for a in stems:
            broken = not all(_one_u_image_identity(pm, u, a) for u in subsets)
            assert (stem_class_image(pm, a) != pm.image(a)) == broken, (pm, a)
            flagged.append(broken)
    assert any(flagged) == lossy


def test_pi_space_probe_examples():
    assert pi_space_probe(TWO, frozenset({1}), ()) == (1,)
    whole = frozenset(TWO.points)
    assert pi_space_probe(TWO, whole, (0, 1)) == (0, 1)
    assert pi_space_probe(TWO, frozenset({0}), ()) == (0,)
    with pytest.raises(ValueError):
        pi_space_probe(TWO, frozenset(), ())


def test_pi_space_probe_finds_a_deep_lone_member():
    # the only stem reaching point 1 is 2.2.2, far past the first stems
    # of any fixed enumeration budget
    pm = PrefixMap.build([0, 1], 3, (0, 1, 2),
                         {s: int(s == (2, 2, 2))
                          for s in product((0, 1, 2), repeat=3)}, 0)
    assert pi_space_probe(pm, frozenset({1}), ()) == (2, 2, 2)


def test_pi_space_probe_hits_every_preset_basic():
    for name, pm in preset_maps().items():
        stems = [t for ln in range(3) for t in product(range(3), repeat=ln)]
        for bits in range(1 << len(pm.points)):
            u = frozenset(p for p in pm.points if bits >> p & 1)
            for a in stems:
                if not basic_members(pm, u, a):
                    continue
                hit = pi_space_probe(pm, u, a)
                # every stem class through the hit resolves into u
                assert hit[: len(a)] == a, (name, sorted(u), a)
                assert stem_class_image(pm, hit) <= u, (name, sorted(u), a)


def test_image_identity_reads_the_image(monkeypatch):
    # a lossy closed-form image differs from the brute image of some stem
    monkeypatch.setattr(PrefixMap, "image", _lossy_image(PrefixMap.image))
    rep = suite_selectors(RunConfig(suite="selectors"))[0]
    assert not rep.ok
    violated = [(k, d) for k, s, d in records(rep) if s == VIOLATED]
    # the one-point map loses its only point at the root; a failing stem
    # names the stem, the closed-form image and the brute image
    assert violated[0][0] == "image:1"
    assert violated[0][1].endswith(" a=() image=[] brute=[0]")
    assert violated[-1][0] == "image-identity"
