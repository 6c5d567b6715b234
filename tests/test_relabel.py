"""The relabel identity checks against a reference copy of the former
hand-composed implementation, and the benchmark report digests."""

import hashlib
import importlib.util
import io
import json
import sys
from functools import reduce
from pathlib import Path
from typing import Callable

import pytest

import bairekit.cylinder as cylinder
import bairekit.scheme as scheme_mod
from conftest import records
from bairekit.cli import main
from bairekit.cylinder import EMPTY, Union
from bairekit.lusin import build_lusin, standard_base
from bairekit.scheme import (BREACH, Report, Scheme, VERIFIED, VIOLATED,
                             Window, check_covers, check_relabel_identities,
                             compose_index, preimage_table, relabel,
                             standard_scheme)
from bairekit.seq import BranchRule, seq_to_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _fold_union(items: list):
    # the reference reads Baire schemes only, whose unions are expressions
    return reduce(Union, items)


# The check as it was before it read relabel() and fruit_prefix(): indices
# composed by hand, its own fruit loop and its own union lists.
def reference_relabel_identities(scheme: Scheme, g: Callable[[int], int],
                             window: Window,
                             preimage_bound: int | None = None) -> Report:
    """Finite instances of the relabeling identities.

    (a) every budgeted child index of the relabeled node comes from a
    relabeled child index and vice versa (needs preimages below the bound;
    missing preimages are reported as a precondition breach);
    (b) the budgeted partial unions of children mutually include, once the
    budgets are matched through ``g`` and its preimages;
    (c) partial fruit intersections along branches agree entrywise.
    """
    rep = Report("relabel-identities")
    space = scheme.space
    bound = preimage_bound if preimage_bound is not None else 4 * window.breadth + 16
    pre = preimage_table(g, window.breadth, bound)
    for v in range(window.breadth):
        if v not in pre:
            rep.add(f"preimage:{v}", BREACH,
                    f"no argument below {bound} maps to {v}")
    surjective = len(pre) == window.breadth

    for a in window.nodes():
        key = seq_to_text(a)
        ga = compose_index(g, a)
        wrong = next((n for n in range(window.breadth)
                      if not space.equal(scheme.node(compose_index(g, a + (n,))),
                                         scheme.node(ga + (g(n),)))), None)
        if wrong is None:
            rep.add(f"index:{key}", VERIFIED)
        else:
            rep.add(f"index:{key}", VIOLATED, f"child {wrong} disagrees")
        if not surjective:
            continue
        m = window.breadth
        relabeled = [scheme.node(compose_index(g, a + (n,))) for n in range(m)]
        direct_hi = 1 + max(g(n) for n in range(m))
        direct = [scheme.node(ga + (k,)) for k in range(max(m, direct_hi))]
        q = _fold_union(relabeled)
        ok1 = space.subset(q, _fold_union(direct[:direct_hi]))
        n_hi = 1 + max(pre[v] for v in range(m))
        q_big = _fold_union([scheme.node(compose_index(g, a + (n,)))
                             for n in range(n_hi)])
        ok2 = space.subset(_fold_union(direct[:m]), q_big)
        if ok1 and ok2:
            rep.add(f"union:{key}", VERIFIED)
        else:
            rep.add(f"union:{key}", VIOLATED,
                    f"partial unions fail mutual inclusion ({ok1}, {ok2})")

    for v in range(window.breadth):
        q = BranchRule.constant(v)
        gq = BranchRule(tuple(map(g, q.stem)), tuple(map(g, q.word)))
        one = scheme.node(())
        two = scheme.node(())
        for j in range(1, window.depth + 1):
            one = space.intersect(one, scheme.node(compose_index(g, q.prefix(j))))
            two = space.intersect(two, scheme.node(gq.prefix(j)))
        if space.equal(one, two):
            rep.add(f"fruit:const{v}", VERIFIED)
        else:
            rep.add(f"fruit:const{v}", VIOLATED)
    return rep



G_MAPS = {
    "identity": lambda n: n,
    "half": lambda n: n // 2,
    "swap": lambda n: n ^ 1,
    "succ": lambda n: n + 1,
    "zero": lambda n: 0,
}
SCHEMES = {"standard": standard_scheme,
           "lusin-std": lambda: build_lusin(standard_base())}


@pytest.mark.parametrize("window", [Window(2, 4), Window(3, 3)],
                         ids=["d2b4", "d3b3"])
@pytest.mark.parametrize("g_name", list(G_MAPS))
@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_relabel_identities_match_reference(scheme_name, g_name, window):
    g = G_MAPS[g_name]
    expected = reference_relabel_identities(SCHEMES[scheme_name](), g, window)
    got = check_relabel_identities(SCHEMES[scheme_name](), g, window)
    assert got.name == expected.name
    assert records(got) == records(expected)


def test_relabel_identities_read_relabel(monkeypatch):
    # a relabel that ignores g: the lifted children are the base children,
    # which differ from the children at g(n) as soon as g is not the identity
    monkeypatch.setattr(scheme_mod, "relabel", lambda scheme, g: scheme)
    rep = check_relabel_identities(standard_scheme(), G_MAPS["half"],
                                   Window(2, 4))
    index = [s for k, s, _ in records(rep) if k.startswith("index:")]
    assert index and set(index) == {VIOLATED}


@pytest.mark.parametrize("g_name", list(G_MAPS))
@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_relabeled_node_is_the_base_object(scheme_name, g_name):
    base, g = SCHEMES[scheme_name](), G_MAPS[g_name]
    moved = relabel(base, g)
    assert moved.space is base.space and moved.label == f"{base.label}^g"
    for a in Window(2, 3).nodes():
        ga = compose_index(g, a)
        assert moved.node(a) is base.node(ga)
        # a node read without storing is still the base's stored object
        assert moved.node(a, store=False) is base.node(ga)
    leaf = (2, 1, 0)
    value = moved.node(leaf, store=False)
    assert compose_index(g, leaf) not in base._memo
    assert base.space.equal(value, base.node(compose_index(g, leaf)))


@pytest.mark.parametrize("g_name", list(G_MAPS))
@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_relabeled_children_compose_the_node_once(scheme_name, g_name):
    base, a, k = SCHEMES[scheme_name](), (2, 1), 5
    calls = []
    moved = relabel(base, lambda n: calls.append(n) or G_MAPS[g_name](n))
    keys = {compose_index(G_MAPS[g_name], a + (n,)) for n in range(k)}
    # read without storing first, so that no key is in the memo yet
    for store in (False, True):
        calls.clear()
        got = moved.children(a, k, store)
        assert len(got) == k and len(calls) == len(a) + k
        assert (keys <= base._memo.keys()) if store else \
            not keys & base._memo.keys()
        want = [moved.node(a + (n,), store) for n in range(k)]
        # unstored values are built afresh on every read
        assert all((x is y) if store else (x == y) for x, y in zip(got, want))


def copying_relabel(scheme, g):
    """A relabel whose nodes equal the base nodes at ``g`` but are distinct
    objects, so no check can decide them by identity."""
    return Scheme(scheme.space,
                  lambda a: Union(scheme.node(compose_index(g, a)), EMPTY))


@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_relabel_identities_hold_for_equal_distinct_nodes(monkeypatch,
                                                          scheme_name):
    monkeypatch.setattr(scheme_mod, "relabel", copying_relabel)
    rep = check_relabel_identities(SCHEMES[scheme_name](), G_MAPS["half"],
                                   Window(2, 4))
    assert set(rep.statuses) == {VERIFIED}


def test_relabel_identities_reject_wrong_distinct_nodes(monkeypatch):
    # copies of the base children themselves, not of the children at g(n)
    monkeypatch.setattr(scheme_mod, "relabel",
                        lambda scheme, g: copying_relabel(scheme, lambda n: n))
    rep = check_relabel_identities(standard_scheme(), G_MAPS["half"],
                                   Window(2, 4))
    for kind in ("index:", "union:"):
        found = [s for k, s, _ in records(rep) if k.startswith(kind)]
        assert found and set(found) == {VIOLATED}


def test_window_checks_normal_form_count(monkeypatch):
    # every normal form the cover and identity checks of the lusin scheme
    # take under the half relabeling, synthesis included; the cover walk
    # takes each node's and each child's form once where the family holds
    # a non-atom (an all-atom family takes none), and the identity checks
    # decide each family against one union form, identical opens without one;
    # the antichain of an atom node takes no form, and each odd level's
    # target takes one
    calls = 0
    real = cylinder.normal_form

    def counted(e):
        nonlocal calls
        calls += 1
        return real(e)

    monkeypatch.setattr(cylinder, "normal_form", counted)
    base, window, half = build_lusin(standard_base()), Window(3, 4), G_MAPS["half"]
    assert check_covers(relabel(base, half), window).ok
    assert check_relabel_identities(base, half, window).ok
    assert calls == 560


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["relabel-vg", "lusin-synth"])
def test_benchmark_report_digest_at_input_seed_0(tmp_path, name):
    workload = _load_workloads().WORKLOADS[name]
    argv = workload.prepare(0, str(tmp_path))
    assert main(argv, stdout=io.StringIO()) == 0
    report = Path(argv[argv.index("--json") + 1]).read_bytes()
    references = json.loads((PERFBENCH / "references.json").read_text())
    assert hashlib.sha256(report).hexdigest() == references[name]["0"]
