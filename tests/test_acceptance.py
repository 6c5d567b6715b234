"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Tolerances are zero mismatches/violations throughout; the
stated runtime ceilings are asserted where given.
"""

import time

from bairekit.choquet import modify_strategy, remove_redundant
from bairekit.spaces import FiniteSpaceModel
from bairekit.suites import (RunConfig, suite_choquet_extract,
                             suite_choquet_finite, suite_cylinders_oracle,
                             suite_lusin, suite_schemes_vg, suite_selectors)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _run(suite_fn, seed=1):
    start = time.perf_counter()
    reports = suite_fn(RunConfig(suite="acceptance", seed=seed))
    elapsed = time.perf_counter() - start
    return reports, elapsed


def _clean(reports) -> bool:
    return all(r.ok and not r.breaches for r in reports)


_oracle_cache = {}


def _oracle_reports():
    if "reports" not in _oracle_cache:
        _oracle_cache["reports"], _oracle_cache["elapsed"] = \
            _run(suite_cylinders_oracle)
    return _oracle_cache["reports"], _oracle_cache["elapsed"]


def test_criterion_1_cylinder_oracle_equivalence():
    reports, elapsed = _oracle_reports()
    main = next(r for r in reports if r.name == "cylinders-oracle")
    ok = main.ok and not main.breaches and elapsed < 10.0
    _report(1, ok, f"grid + 500 random expressions vs window oracle, "
                   f"{elapsed:.1f}s")


def test_criterion_2_deflation_and_clauses():
    space = FiniteSpaceModel([0, 1, 2], [[], [2], [1, 2], [0, 1, 2]])
    x, y, z = space.whole(), space.mask_of([1, 2]), space.mask_of([2])
    history = ((x, x), (x, x), (y, y), (y, y), (z, z))
    exact = remove_redundant(space, history) == ((y, y), (z, z))

    calls = []

    def recording(sp, hist, u):
        calls.append((hist, u))
        return u

    modified = modify_strategy(recording)
    clauses = (
        modified(space, (), x) == x and not calls,
        modified(space, (), y) == y and calls == [((), y)],
        modified(space, ((x, x), (y, y)), y) == y and len(calls) == 1,
        modified(space, ((x, x), (y, y)), z) == z
        and calls[-1] == ((((y, y),)), z),
    )
    _report(2, exact and all(clauses),
            "deflation reproduced bit-exactly; all reply clauses dispatch")


def test_criterion_3_modified_strategy_wins_exhaustively():
    reports, elapsed = _run(suite_choquet_finite)
    wins = next(r for r in reports if r.name == "modified-copy-wins")
    ok = _clean(reports) and wins.ok and elapsed < 60.0
    _report(3, ok, f"all topologies on <=4 points, every infinite run, "
                   f"{elapsed:.1f}s")


def test_criterion_4_lusin_synthesis():
    reports, elapsed = _run(suite_lusin)
    ok = _clean(reports) and elapsed < 10.0
    _report(4, ok, f"window d=4, budget 6, deterministic rebuild, "
                   f"{elapsed:.1f}s")


def test_criterion_5_relabel_suite():
    reports, elapsed = _run(suite_schemes_vg)
    ok = _clean(reports)
    _report(5, ok, f"identity/half/swap on standard and synthesized "
                   f"schemes at d=3, budget 6, {elapsed:.1f}s")


def test_criterion_6_extraction_end_to_end():
    reports, elapsed = _run(suite_choquet_extract)
    finite = next(r for r in reports if r.name == "extract-finite")
    baire = next(r for r in reports if r.name == "extract-baire")
    ok = _clean(reports) and finite.ok and baire.ok
    _report(6, ok, f"verified covers + pi-base + replay on every <=4-point "
                   f"space; cylinder growth on 20 branches, {elapsed:.1f}s")


def test_criterion_7_selector_identities():
    reports, elapsed = _run(suite_selectors)
    ok = _clean(reports)
    _report(7, ok, f"image and pushforward identities exhaustive to 4 points "
                   f"depth 2; probe budget 50, {elapsed:.1f}s")


def test_criterion_8_nd_witness():
    reports, _elapsed = _oracle_reports()
    nd = next(r for r in reports if r.name == "nd-witness")
    _report(8, nd.ok and not nd.breaches,
            "100 random source/tree pairs verified on the window")
