"""Synthesis of a partitioning cylinder scheme refined against a base.

Given a countable list of target opens (indexed by the odd naturals), the
builder produces, by recursion on index length, a Baire-model scheme whose
root is the whole space and whose nodes satisfy, level by level:

  (a) every node is a nonempty open;
  (b) nodes of odd length are single cylinders at least as long as their
      index;
  (c) at an odd level k, if the node meets the k-th target, the children
      with positive index all land inside that target.

At an even level (and at an odd level missing its target) the node is
split into its minimal antichain of cylinders, each extended by every
sequence of the next length, enumerated fairly and injectively.  At an odd
level meeting its target, a strict witness cylinder inside the meet is
carved out: child 0 keeps the rest of the node, the remaining children
partition the witness.  Condition (c) then follows from the single
inclusion of the witness in the target, which covers the whole infinite
child family at once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import cylinder as cy
from .cylinder import (Antichain, Atom, Diff, Expr, Extensions, Inter,
                       minimal_antichain)
from .grammar import parse_expr
from .scheme import (Report, Scheme, UNRESOLVED, VERIFIED, VIOLATED,
                     Window, check_partitions)
from .seq import Seq, seq_at, tuple_at
from .spaces import BAIRE


@dataclass(frozen=True)
class LusinBase:
    """Targets indexed by odd naturals, materialized on demand.

    The declared reading: the targets enumerate a base of some finer
    topology for which the nonempty cylinder opens form a pi-base.  That
    assumption quantifies over all opens of the finer topology and is not
    checkable here; it is an input declaration.

    ``target_form`` reads each odd level's target and takes its normal
    form once per base, however many nodes, schemes and checks ask.
    """

    expr_at: Callable[[int], Expr]
    label: str = "custom"
    _forms: dict[int, tuple[Expr, frozenset[Seq]]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def target(self, k: int) -> Expr:
        if k % 2 == 0:
            raise ValueError("targets are indexed by odd naturals")
        e = self.expr_at(k)
        if not isinstance(e, Expr):
            raise ValueError(f"target {k} is not an expression: {e!r}")
        return e

    def target_form(self, k: int) -> tuple[Expr, frozenset[Seq]]:
        """The target of the odd level ``k`` and its normal form; nodes are
        decided against the form by ``cylinder.meet_form``."""
        got = self._forms.get(k)
        if got is None:
            target = self.target(k)
            got = self._forms[k] = (target, cy.normal_form(target))
        return got


def standard_base() -> LusinBase:
    """The fair enumeration of all basic cylinders."""
    return LusinBase(lambda k: Atom(seq_at((k - 1) // 2)), label="std")


def base_from_lines(text: str) -> LusinBase:
    """One expression per line; targets beyond the list are empty."""
    exprs = [parse_expr(line) for line in text.splitlines() if line.strip()]

    def at(k: int) -> Expr:
        j = (k - 1) // 2
        return exprs[j] if j < len(exprs) else cy.EMPTY

    return LusinBase(at, label="file")


# ``tails(k, count)``: the first ``count`` sequences of length ``k``
_Tails = Callable[[int, int], list[Seq]]


class _Plan:
    """How a node's children are built: ``child(n)`` builds child ``n``,
    ``family(count, tails)`` the first ``count`` children."""

    __slots__ = ()

    def family(self, count: int, tails: _Tails) -> list[Expr]:
        return [self.child(n) for n in range(count)]


class _SplitPlan(_Plan):
    """Children = antichain members extended by all next-length sequences.

    An atom node's antichain is the atom itself and takes no form.  A
    one-member finite antichain such as that one has ``extension(n) ==
    (member, n)``, so it is split by ``_StemPlan``: child ``n`` is the
    member plus ``tuple_at(n, k)``.  Other nodes, such as a carve's child
    0, take the antichain descent, which keeps an explicit stack: a base
    with stems thousands of entries long cannot exhaust the interpreter
    stack.
    """

    __slots__ = ("chain", "ext_len")
    witness = None  # a split carves nothing

    def __init__(self, chain: Antichain, ext_len: int):
        self.chain = chain
        self.ext_len = ext_len

    def child(self, n: int) -> Expr:
        member, j = self.chain.extension(n)
        return Atom(member + tuple_at(j, self.ext_len))


class _StemPlan(_Plan):
    """The split of a one-member finite antichain; it keeps the member only."""

    __slots__ = ("member", "ext_len")
    witness = None

    def __init__(self, member: Seq, ext_len: int):
        self.member = member
        self.ext_len = ext_len

    def child(self, n: int) -> Expr:
        return Atom(self.member + tuple_at(n, self.ext_len))

    def family(self, count: int, tails: _Tails) -> Extensions:
        """The member extended by each of the level's shared tails, the
        first ``count`` sequences of length ``ext_len``; each atom is
        built only when it is read."""
        return Extensions(self.member, tails(self.ext_len, count))


class _CarvePlan(_Plan):
    """Child 0 = node minus the witness; child n = the (n-1)-th slice of it."""

    __slots__ = ("node", "witness")

    def __init__(self, node: Expr, witness: Seq):
        self.node = node
        self.witness = witness

    def child(self, n: int) -> Expr:
        if n == 0:
            return Diff(self.node, Atom(self.witness))
        return Atom(self.witness + (n - 1,))


class _LusinScheme(Scheme):
    """A scheme whose rule also builds families: ``rule(a, count, store)``
    is the sequence of the first ``count`` children of ``a``.  An unstored
    family read keeps neither its children nor the stem or split plan
    that built them: below the window's last level nothing reads either
    again."""

    def children(self, a: Seq, count: int,
                 store: bool = True) -> list[Expr] | Extensions:
        keys = [a + (n,) for n in range(count)]
        # a Lusin node is an expression, never None
        got = list(map(self._memo.get, keys))
        missing = [n for n, v in enumerate(got) if v is None]
        if not missing:
            return got
        family = self.rule(a, count, store)
        if not store and len(missing) == count:
            # nothing to keep and nothing stored to hand back: the family
            # as its plan built it, a stem plan's ``Extensions`` unbuilt
            return family
        for n in missing:
            v = family[n]
            got[n] = self._memo.setdefault(keys[n], v) if store else v
        return got


def build_lusin(base: LusinBase) -> Scheme:
    """The scheme refined against ``base``.  ``scheme.meta["plan"]`` maps a
    node to its plan, built on demand: a carve plan's ``witness`` is the
    cylinder it carves, a split plan's is None.

    The rule has two forms.  ``rule(a)`` is the node at ``a``, read off its
    parent's plan.  ``rule(a, count)`` is the list of the first ``count``
    children of ``a``, built from ``a``'s plan at once; the scheme's
    ``children`` makes that one call for a family with any child not in
    the memo.  A stem plan's children share their length-``k`` tails,
    which are kept per level in a table that only family reads grow: it is
    bounded by the largest budget read and dropped with the scheme.  The
    family call goes through the scheme's own ``rule`` and not around it,
    so that whatever wraps the rule sees every plan built: the benchmark's
    layer tracer counts the antichains and witnesses of the plans in the
    layer that built the scheme.  The plan map reaches the scheme through
    a weak proxy, so no cycle holds a scheme back: reference counting
    frees it, with its plans and tails, when its last user lets go, and
    its plan map then raises ``ReferenceError``.

    A stem plan's family is an ``Extensions`` of its member by the tails.
    A read with ``store`` false that finds none of the children in the
    memo hands it on as it is, so the cover and partition walk decides the
    leaf level on stems and tails and builds none of its atoms; every
    other read returns a list.  An unstored family read keeps neither its
    children nor the stem or split plan that built them, so the plan map
    holds no plan of the walk's deepest level.  A carve plan is kept on
    every read, since ``check_lusin_conditions`` reads its witness back;
    single-node reads, ``meta["plan"]`` reads and stored family reads keep
    every plan they build.

    Each odd level's target and its normal form come from
    ``base.target_form``: a node carves when ``cylinder.meet_form`` finds
    it meeting that form, and the meet itself is built only for the
    carve's witness."""
    plans: dict[Seq, _Plan] = {}
    tail_table: dict[int, list[Seq]] = {}
    owner: Scheme  # a weak proxy of the scheme, set once it is built

    def tails(k: int, count: int) -> list[Seq]:
        known = tail_table.setdefault(k, [])
        for n in range(len(known), count):
            known.append(tuple_at(n, k))
        return known[:count]

    def plan_for(a: Seq, keep: bool = True):
        plan = plans.get(a)
        if plan is None:
            va = owner.node(a)
            k = len(a)
            if k % 2 == 1:
                target, form = base.target_form(k)
                if cy.meet_form(va, form):
                    # the meet is built only for the carve's witness
                    plan = _CarvePlan(va, cy.strict_witness(Inter(va, target)))
            if plan is None:
                chain = minimal_antichain(va)
                if chain.families or len(chain.concrete) > 1:
                    plan = _SplitPlan(chain, k + 1)
                else:
                    plan = _StemPlan(chain.concrete[0], k + 1)
            if keep or plan.witness is not None:
                plans[a] = plan
        return plan

    def rule(a: Seq, count: Optional[int] = None, store: bool = True):
        if count is not None:
            return plan_for(a, store).family(count, tails)
        if not a:
            return cy.FULL
        return plan_for(a[:-1]).child(a[-1])

    scheme = _LusinScheme(BAIRE, rule, label=f"lusin[{base.label}]")
    scheme.meta["plan"] = plan_for
    owner = weakref.proxy(scheme)
    return scheme


def check_lusin_conditions(scheme: Scheme, base: LusinBase,
                           window: Window) -> Report:
    """Per-node checks of (a), (b), (c) on the window, plus the partition
    check.  For schemes built here, (c) is certified by the one inclusion
    of the plan's witness in the target, which covers every positive child
    at once; foreign schemes fall back to per-child evidence."""
    rep = check_partitions(scheme, window)
    rep.name = "lusin-conditions"
    plan = scheme.meta.get("plan")
    for a, key in window.keyed():
        va = scheme.node(a)
        if cy.is_empty(va):
            rep.add(f"nonempty:{key}", VIOLATED, "empty node")
            continue
        rep.add(f"nonempty:{key}", VERIFIED)
        k = len(a)
        if k % 2 == 0:
            continue
        if not (isinstance(va, Atom) and len(va.entries) >= k):
            rep.add(f"cyl-form:{key}", VIOLATED,
                    "odd node is not a long-enough single cylinder")
        else:
            rep.add(f"cyl-form:{key}", VERIFIED)
        target, form = base.target_form(k)
        if not cy.meet_form(va, form):
            continue
        witness = plan(a).witness if plan else None
        # the positive children follow child 0; below the window's last
        # level they are read, not stored
        children = scheme.children(a, window.breadth, store=False)[1:]
        bound = target if witness is None else Atom(witness)
        held = not scheme.space.family(bound, children, False)[0]
        if witness is not None:
            # S(w) lies inside the target exactly when its meet with the
            # target is S(w) itself, whose form is {w}
            inside = cy.meet_form(bound, form) == {witness}
            if inside and held:
                rep.add(f"refine:{key}", VERIFIED,
                        "witness inclusion covers all positive children")
            else:
                rep.add(f"refine:{key}", VIOLATED,
                        f"witness inclusion {inside}, budgeted children {held}")
        elif held:
            rep.add(f"refine:{key}", UNRESOLVED,
                    "no witness recorded; budgeted children only")
        else:
            rep.add(f"refine:{key}", VIOLATED,
                    "a budgeted positive child escapes the target")
    return rep
