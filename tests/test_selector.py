from itertools import product

import pytest

from bairekit.scheme import Scheme, VIOLATED, Window, check_covers
from bairekit.selector import (PrefixMap, SigmaBasic, basic_is_empty,
                               check_image_identity, check_selector_identity,
                               pi_space_probe, preset_maps, pushforward_scheme)
from bairekit.seq import BranchRule, restrict
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
    assert TWO.resolve(restrict(BranchRule.constant(3), TWO.depth)) == 1
    assert THREE.image((1,)) == {0, 1, 2}
    assert THREE.image((1, 0)) == {2}
    assert THREE.image((1, 0, 9)) == {2}


def test_prefix_map_json_round_trip():
    again = PrefixMap.from_json(THREE.to_json())
    assert again == THREE


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
    assert rep.ok and not rep.with_status("unresolved")


def test_selector_identity_check():
    sch = pushforward_scheme(TWO)
    assert check_selector_identity(TWO, sch, Window(2, 3)).ok

    sp = sch.space
    def enlarged(a):
        mask = sp.mask_of(TWO.image(a))
        return sp.whole() if a == (0,) else mask

    rep = check_selector_identity(TWO, Scheme(sp, enlarged), Window(1, 2))
    assert any(e.status == VIOLATED and e.key == "0" for e in rep.entries)


def test_image_identity_examples():
    whole = frozenset(THREE.points)
    assert check_image_identity(THREE, whole, (0,))
    assert check_image_identity(THREE, frozenset(), (1, 1))
    for u_bits in range(8):
        u = frozenset(p for p in range(3) if u_bits >> p & 1)
        for a in [(), (0,), (1, 0), (2,), (0, 1, 1)]:
            assert check_image_identity(THREE, u, a)


def test_pi_space_probe_examples():
    assert pi_space_probe(TWO, SigmaBasic(frozenset({1}), ()), 50) == (1,)
    whole = frozenset(TWO.points)
    assert pi_space_probe(TWO, SigmaBasic(whole, (0, 1)), 50) == (0, 1)
    with pytest.raises(ValueError):
        pi_space_probe(TWO, SigmaBasic(frozenset(), ()), 50)
    nontrivial = SigmaBasic(frozenset({0}), ())
    assert pi_space_probe(TWO, nontrivial, 1) is None  # budget 0 extensions


def test_pi_space_probe_hits_every_preset_basic():
    for name, pm in preset_maps().items():
        stems = [t for ln in range(3) for t in product(range(3), repeat=ln)]
        for bits in range(1 << len(pm.points)):
            u = frozenset(p for p in pm.points if bits >> p & 1)
            for a in stems:
                basic = SigmaBasic(u, a)
                if basic_is_empty(pm, basic):
                    continue
                hit = pi_space_probe(pm, basic, 50)
                assert hit is not None, (name, sorted(u), a)
                assert hit[: len(a)] == a and pm.image(hit) <= u


def test_image_identity_reads_the_image(monkeypatch):
    # an image that loses the default point of the stems shorter than the
    # map depth; the brute side still reaches it through a fresh letter.
    # The pushforward scheme is built from the same image, so only its
    # check against a brute image can tell its nodes wrong
    image = PrefixMap.image

    def lossy(self, a):
        out = image(self, a)
        return out - {self.default} if len(a) < self.depth else out

    monkeypatch.setattr(PrefixMap, "image", lossy)
    rep = suite_selectors(RunConfig(suite="selectors"))[0]
    assert not rep.ok
    assert any(e.key.startswith("image:") for e in rep.violations)
    assert any(e.key.startswith("pushforward:") for e in rep.violations)
