"""Lazy Souslin schemes over space models, with finite-window verification.

A scheme is a total memoized rule from finite sequences to open sets of a
space model.  Infinitary scheme predicates (covering, partitioning, strict
branches) are checked on a window: all index sequences up to a depth whose
entries stay below a child budget.  Checks report three-valued statuses,
because inclusion into an infinite union of children is only one-sided
evidence at any finite budget.

Scheme memo tables are not synchronized; confine a scheme to one task, or
share only after the nodes of interest have been evaluated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, Optional

from .cylinder import Atom, enclosing_stem
from .seq import BranchRule, Seq, seq_at, seq_to_text
from .spaces import BAIRE, BaireSpaceModel, SpaceModel

VERIFIED = "verified"
VIOLATED = "violated"
UNRESOLVED = "unresolved"
BREACH = "breach"
# the verdict order, worst first
_ORDER = (VIOLATED, BREACH, UNRESOLVED, VERIFIED)


def worst(statuses: Iterable[str]) -> str:
    """The worst of ``statuses`` in the verdict order: violated, then
    breach, then unresolved, then verified; verified when there are none."""
    return min(statuses, key=_ORDER.index, default=VERIFIED)


@dataclass(frozen=True)
class Window:
    """The finite verification surface: depth bound and child budget."""

    depth: int
    breadth: int
    # each prefix's rendered report keys, kept by ``keyed``
    _keys: dict[str, list[str]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.depth < 0 or self.breadth < 1:
            raise ValueError(f"bad window {self}")

    def nodes(self) -> Iterator[Seq]:
        for length in range(self.depth + 1):
            yield from product(range(self.breadth), repeat=length)

    def keyed(self, prefix: str = "") -> Iterator[tuple[Seq, str]]:
        """``nodes()`` in order, each with its report key ``prefix +
        seq_to_text(a)``.

        Each prefix's keys are rendered once per window, on its first
        call, and kept with the window in a list, so every later walk and
        every report of the window shares the very same key objects.  A
        node's key is its parent's key plus one entry, so no key is
        rendered from scratch."""
        keys = self._keys.get(prefix)
        if keys is None:
            keys = self._keys[prefix] = [prefix + seq_to_text(())]
            # the parents of a level are the previous level in order,
            # each parent once per value
            parents: list[str] = [prefix]
            for length in range(1, self.depth + 1):
                sep = "." if length > 1 else ""
                ends = [f"{sep}{v}" for v in range(self.breadth)]
                start = len(keys)
                keys.extend(key + end for key in parents for end in ends)
                parents = keys[start:] if length < self.depth else []
        return zip(self.nodes(), keys)

    def node_count(self) -> int:
        if self.breadth == 1:
            return self.depth + 1
        return (self.breadth ** (self.depth + 1) - 1) // (self.breadth - 1)

    @property
    def preimage_bound(self) -> int:
        """The arguments below which relabel checks look for preimages."""
        return 4 * self.breadth + 16

    def to_json(self) -> dict:
        return {"depth": self.depth, "breadth": self.breadth}


class Report:
    """A keyed list of per-check statuses, kept as three parallel columns
    ``keys``, ``statuses`` and ``details``, so an entry costs no object of
    its own; pass means no violation and no breach.  Two reports are equal
    when their names and columns are."""

    __slots__ = ("name", "keys", "statuses", "details")

    def __init__(self, name: str):
        self.name = name
        self.keys: list[str] = []
        self.statuses: list[str] = []
        self.details: list[str] = []

    def add(self, key: str, status: str, detail: str = "") -> None:
        self.keys.append(key)
        self.statuses.append(status)
        self.details.append(detail)

    def extend(self, other: "Report") -> None:
        self.keys.extend(other.keys)
        self.statuses.extend(other.statuses)
        self.details.extend(other.details)

    def summarize(self, key: str, items: tuple[str, ...], detail: str) -> None:
        """Add ``key`` with the worst status among the entries whose keys
        start with one of ``items``.  A verified summary reads ``detail``;
        a failing one counts the entries of its status and names the
        first."""
        matched = [(k, s) for k, s in zip(self.keys, self.statuses)
                   if k.startswith(items)]
        status = worst(s for _, s in matched)
        if status != VERIFIED:
            failed = [k for k, s in matched if s == status]
            detail = f"{len(failed)} {status}, first {failed[0]}"
        self.add(key, status, detail)

    @property
    def ok(self) -> bool:
        return worst(self.statuses) in (UNRESOLVED, VERIFIED)

    def counts(self) -> dict[str, int]:
        """The number of entries of each status."""
        c = Counter(self.statuses)
        return {s: c[s] for s in (VERIFIED, VIOLATED, UNRESOLVED, BREACH)}

    def to_json(self) -> dict:
        """The report's JSON form; ``cli`` writes its text from the columns
        without building it."""
        return {
            "name": self.name,
            "ok": self.ok,
            "counts": self.counts(),
            "entries": [{"key": k, "status": s, "detail": d}
                        for k, s, d in zip(self.keys, self.statuses,
                                           self.details)],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return (self.name, self.keys, self.statuses, self.details) == \
            (other.name, other.keys, other.statuses, other.details)

    def __repr__(self) -> str:
        return (f"Report({self.name!r}, "
                f"{list(zip(self.keys, self.statuses, self.details))!r})")

    def __str__(self) -> str:
        c = self.counts()
        verdict = "ok" if self.ok else worst(self.statuses).upper()
        return (f"{self.name}: {verdict} "
                f"(verified {c[VERIFIED]}, violated {c[VIOLATED]}, "
                f"unresolved {c[UNRESOLVED]}, breach {c[BREACH]})")


_MISSING = object()


class Scheme:
    """A lazy, memoized total rule from index sequences to open sets."""

    def __init__(self, space: SpaceModel, rule: Callable[[Seq], object],
                 label: str = "scheme"):
        self.space = space
        self.rule = rule
        self.label = label
        self.meta: dict = {}
        self._memo: dict[Seq, object] = {}

    def node(self, a: Seq, store: bool = True):
        """The value at ``a``; with ``store`` false a value not yet in the
        memo is computed and returned without being kept."""
        value = self._memo.get(a, _MISSING)
        if value is _MISSING:
            value = self.rule(a)
            if store:
                # a rule may re-enter ``node``; the first value stored wins
                value = self._memo.setdefault(a, value)
        return value

    def children(self, a: Seq, count: int, store: bool = True):
        """The first ``count`` children of ``a``, each read as
        ``node(a + (n,), store)``.

        The result is a sequence: a list, or, for an unstored family of a
        Lusin stem plan, a ``cylinder.Extensions`` whose atoms are built
        when read.  Consumers index it, slice it, take its ``len`` and
        iterate it.  Every override keeps the memo rules of that read: a
        child already in the memo comes back as the very stored object;
        with ``store`` true each child not in the memo is stored, the first
        value stored winning; with ``store`` false none of the children is
        kept.  A Lusin scheme's unstored family read keeps neither its
        children nor the stem or split plan that built them."""
        return [self.node(a + (n,), store) for n in range(count)]


def standard_scheme() -> Scheme:
    """The scheme of basic cylinders themselves, over the Baire model."""
    return Scheme(BAIRE, lambda a: Atom(a), label="standard")


# -- window checks ------------------------------------------------------------

def check_covers(scheme: Scheme, window: Window) -> Report:
    """Children inside their node (exact), node inside the finite child
    union (one-sided: verified or unresolved), and root equal to the space.
    """
    return _walk(scheme, window, "covers", pairs=False)


def check_partitions(scheme: Scheme, window: Window) -> Report:
    """Pairwise disjointness of budgeted children, on top of the cover check.

    Every meeting pair ``n < m`` of a node is one violation ``key:n^m``,
    in ascending order, after all the cover entries.
    """
    return _walk(scheme, window, "partitions", pairs=True)


def _walk(scheme: Scheme, window: Window, name: str, pairs: bool) -> Report:
    """One pass over the window: each node's budgeted children are read
    once and the space model decides the family at once.  Children of the
    deepest window nodes are read without being stored."""
    rep = Report(name)
    space = scheme.space
    root = scheme.node(())
    if space.equal(root, space.whole()):
        rep.add("root", VERIFIED, "root equals the whole space")
    else:
        rep.add("root", VIOLATED, "root differs from the whole space")
    overlaps = Report(name)
    for a, key in window.keyed():
        children = scheme.children(a, window.breadth, len(a) < window.depth)
        escaped, covered, met = space.family(scheme.node(a), children, pairs)
        if escaped:
            for n in escaped:
                rep.add(f"{key}:{n}", VIOLATED, "child escapes its node")
        elif covered:
            rep.add(key, VERIFIED)
        else:
            rep.add(key, UNRESOLVED, "node not covered by budgeted children")
        for n, m in met:
            overlaps.add(f"{key}:{n}^{m}", VIOLATED, "children overlap")
    rep.extend(overlaps)
    return rep


def fruit_prefix(scheme: Scheme, p: BranchRule, n: int):
    """Intersection of the first ``n + 1`` node values along the branch."""
    space = scheme.space
    out = scheme.node(())
    a = p.prefix(n)
    for k in range(1, n + 1):
        out = space.intersect(out, scheme.node(a[:k]))
    return out


@dataclass(frozen=True)
class BranchProbe:
    nonempty: bool
    precision: int


def strict_branch_probe(scheme: Scheme, p: BranchRule, n: int) -> BranchProbe:
    """Evidence toward a singleton fruit along ``p``: nonemptiness of the
    depth-``n`` fruit and the length of the longest single cylinder known
    to contain it.  Never claims strictness outright.
    """
    if not isinstance(scheme.space, BaireSpaceModel):
        raise TypeError("strict-branch probing is defined over the Baire model")
    stem = enclosing_stem(fruit_prefix(scheme, p, n))
    if stem is None:
        return BranchProbe(False, 0)
    return BranchProbe(True, len(stem))


class EmptyTargetError(ValueError):
    pass


def pi_net_probe(scheme: Scheme, root: Seq, target, budget: int) -> Optional[Seq]:
    """First node at or below ``root`` that is nonempty and inside ``target``.

    Candidates are tried in the canonical fair order of extensions; this
    is a semi-decision bounded by the budget.
    """
    space = scheme.space
    if space.is_empty(space.intersect(target, scheme.node(root))):
        raise EmptyTargetError("target misses the subspace")
    for k in range(budget):
        b = root + seq_at(k)
        vb = scheme.node(b)
        if not space.is_empty(vb) and space.subset(vb, target):
            return b
    return None


# -- index relabeling ---------------------------------------------------------

class _Relabeled(Scheme):
    """``relabel``'s view: no memo of its own, every node is the base's."""

    def __init__(self, base: Scheme, g: Callable[[int], int]):
        self.space, self.label, self.meta = base.space, f"{base.label}^g", {}
        self.base, self.g = base, g

    def node(self, a: Seq, store: bool = True):
        return self.base.node(tuple(map(self.g, a)), store)

    def children(self, a: Seq, count: int, store: bool = True) -> list:
        # ``a`` is composed once for the whole family
        ga, g, node = tuple(map(self.g, a)), self.g, self.base.node
        return [node(ga + (g(n),), store) for n in range(count)]


def relabel(scheme: Scheme, g: Callable[[int], int]) -> Scheme:
    """The scheme whose node at ``a`` is the base node at ``g`` applied
    entrywise to ``a``; a view, so each node is the very base object."""
    return _Relabeled(scheme, g)


def preimage_table(g: Callable[[int], int], values: int,
                   bound: int) -> dict[int, int]:
    """Least preimage under ``g`` for each value below ``values``, searching
    arguments below ``bound``; missing values are simply absent."""
    table: dict[int, int] = {}
    for n in range(bound):
        v = g(n)
        if v < values and v not in table:
            table[v] = n
            if len(table) == values:
                break
    return table


def check_relabel_identities(scheme: Scheme, g: Callable[[int], int],
                             window: Window) -> Report:
    """Finite instances of the relabeling identities, read off
    ``relabel(scheme, g)``.

    (a) every budgeted child index of the relabeled node comes from a
    relabeled child index and vice versa (needs preimages below
    ``window.preimage_bound``; missing preimages are reported as a
    precondition breach);
    (b) the budgeted partial unions of children mutually include, once the
    budgets are matched through ``g`` and its preimages;
    (c) partial fruit intersections along branches agree entrywise.
    """
    rep = Report("relabel-identities")
    space = scheme.space
    moved = relabel(scheme, g)
    m = window.breadth
    bound = window.preimage_bound
    pre = preimage_table(g, m, bound)
    for v in range(m):
        if v not in pre:
            rep.add(f"preimage:{v}", BREACH,
                    f"no argument below {bound} maps to {v}")
    surjective = len(pre) == m
    images = [g(n) for n in range(m)]
    # beyond the budget, relabeled children reach the least preimages and
    # direct children reach every value ``g`` takes on the budget; the m
    # distinct least preimages put n_hi at m or above
    n_hi = 1 + max(pre.values()) if surjective else m
    direct_hi = 1 + max(images)

    # the keys of both entries are the window's own, shared by every report
    for (a, index_key), (_, union_key) in zip(window.keyed("index:"),
                                              window.keyed("union:")):
        lifted = moved.children(a, n_hi)
        # every g(n) with n below the budget is below direct_hi
        direct = scheme.children(tuple(map(g, a)), max(m, direct_hi))
        wrong = next((n for n in range(m)
                      if not space.equal(lifted[n], direct[images[n]])), None)
        if wrong is None:
            rep.add(index_key, VERIFIED)
        else:
            rep.add(index_key, VIOLATED, f"child {wrong} disagrees")
        if not surjective:
            continue
        ok1 = not space.uncovered(lifted[:m], direct[:direct_hi])
        ok2 = not space.uncovered(direct[:m], lifted[:n_hi])
        if ok1 and ok2:
            rep.add(union_key, VERIFIED)
        else:
            rep.add(union_key, VIOLATED,
                    f"partial unions fail mutual inclusion ({ok1}, {ok2})")

    d = window.depth
    for v, gv in enumerate(images):
        # the constant branch v, relabeled through g, is the constant g(v)
        if space.equal(fruit_prefix(moved, BranchRule.constant(v), d),
                       fruit_prefix(scheme, BranchRule.constant(gv), d)):
            rep.add(f"fruit:const{v}", VERIFIED)
        else:
            rep.add(f"fruit:const{v}", VIOLATED)
    return rep


def dense_in_itself_probe(scheme: Scheme, x, window: Window) -> Report:
    """At every window node containing ``x``, look for two distinct children
    containing ``x`` within the budget.  A miss is unresolved (the budget
    is finite), not a violation."""
    rep = Report("dense-in-itself")
    space = scheme.space
    nodes = branch_nodes(scheme, x, window)
    if not nodes:
        rep.add("pre", BREACH, "point not seen in any window node")
        return rep
    for a in nodes:
        children = scheme.children(a, window.breadth, len(a) < window.depth)
        hits = [n for n, c in enumerate(children) if space.contains(c, x)]
        key = seq_to_text(a)
        if len(hits) >= 2:
            rep.add(key, VERIFIED, f"children {hits[0]},{hits[1]}")
        else:
            rep.add(key, UNRESOLVED, "fewer than two children found in budget")
    return rep


def branch_nodes(scheme: Scheme, x, window: Window) -> list[Seq]:
    """Window nodes whose value contains ``x``; prefixes of every true
    branch through ``x`` lie in this set."""
    space = scheme.space
    return [a for a in window.nodes() if space.contains(scheme.node(a), x)]


def dump_scheme(scheme: Scheme, window: Window) -> dict:
    to_json, node = scheme.space.open_to_json, scheme.node
    nodes = {key: to_json(node(a)) for a, key in window.keyed()}
    return {"space": scheme.space.tag, "label": scheme.label,
            "window": window.to_json(), "nodes": nodes}
