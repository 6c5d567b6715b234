from itertools import product

import pytest

from conftest import records
from bairekit.scheme import Scheme, VIOLATED, Window, check_covers
from bairekit.selector import (PrefixMap, _stem_class_words,
                               basic_members, check_image_identity,
                               check_selector_identity, pi_space_probe,
                               preset_maps, pushforward_scheme,
                               stem_class_image)
from bairekit.seq import BranchRule
from bairekit.suites import RunConfig, suite_selectors

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


def test_pushforward_scheme_nodes():
    sch = pushforward_scheme(TWO)
    sp = sch.space
    assert sp.points_of(sch.node(())) == (0, 1)
    assert sp.points_of(sch.node((0,))) == (0,)
    assert sp.points_of(sch.node((7,))) == (1,)
    for a in Window(2, 3).nodes():
        for n in range(3):
            assert sp.subset(sch.node(a + (n,)), sch.node(a))


def test_pushforward_covers_verified():
    rep = check_covers(pushforward_scheme(THREE), Window(2, 3))
    assert rep.ok and "unresolved" not in rep.statuses


def _images(pm, window):
    return {a: stem_class_image(pm, a) for a in window.nodes()}


def test_selector_identity_check():
    sch = pushforward_scheme(TWO)
    assert check_selector_identity(sch, _images(TWO, Window(2, 3))).ok

    sp = sch.space
    def enlarged(a):
        mask = sp.mask_of(TWO.image(a))
        return sp.whole() if a == (0,) else mask

    rep = check_selector_identity(Scheme(sp, enlarged),
                                  _images(TWO, Window(1, 2)))
    assert any(k == "0" and s == VIOLATED for k, s, _ in records(rep))


def test_image_identity_examples():
    seen = _images(THREE, Window(3, 3))
    whole = frozenset(THREE.points)
    assert check_image_identity(THREE, (0,), seen[(0,)], [whole]) is None
    assert check_image_identity(THREE, (1, 1), seen[(1, 1)],
                                [frozenset()]) is None
    subsets = [frozenset(p for p in range(3) if u_bits >> p & 1)
               for u_bits in range(8)]
    for a in [(), (0,), (1, 0), (2,), (0, 1, 1)]:
        assert check_image_identity(THREE, a, seen[a], subsets) is None


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


@pytest.mark.parametrize("lossy", [False, True])
def test_image_identity_matches_the_one_u_reference(monkeypatch, lossy):
    if lossy:
        monkeypatch.setattr(PrefixMap, "image", _lossy_image(PrefixMap.image))
    failures = 0
    for pm in preset_maps().values():
        subsets = [frozenset(p for p in pm.points if bits >> p & 1)
                   for bits in range(1 << len(pm.points))]
        for a, seen in _images(pm, Window(2, 3)).items():
            first = next((u for u in subsets
                          if not _one_u_image_identity(pm, u, a)), None)
            assert check_image_identity(pm, a, seen, subsets) == first, (pm, a)
            failures += first is not None
    assert bool(failures) == lossy


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
    # the pushforward scheme is built from the same lossy image, so only its
    # check against a brute image can tell its nodes wrong
    monkeypatch.setattr(PrefixMap, "image", _lossy_image(PrefixMap.image))
    rep = suite_selectors(RunConfig(suite="selectors"))[0]
    assert not rep.ok
    violated = [k for k, s, _ in records(rep) if s == VIOLATED]
    assert any(k.startswith("image:") for k in violated)
    assert any(k.startswith("pushforward:") for k in violated)
