"""Finite sequences of naturals and lazily inspected infinite branches.

Finite sequences are plain tuples of non-negative ints.  Branches (total
maps from the naturals to the naturals) are wrapped in ``BranchRule`` and
are only ever inspected through finite prefixes; no equality is defined
for them, only prefix comparison to a caller-supplied depth.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Union

Seq = tuple[int, ...]


class BranchRule:
    """A total map from the naturals to the naturals.

    Values must be naturals; this is checked on every evaluation.  Two
    rules can only be compared via ``prefix`` to an explicit depth.
    """

    __slots__ = ("_fn", "name")

    def __init__(self, fn: Callable[[int], int], name: str = "branch"):
        self._fn = fn
        self.name = name

    def __call__(self, n: int) -> int:
        v = self._fn(n)
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"branch rule produced a non-natural at {n}: {v!r}")
        return v

    def prefix(self, n: int) -> Seq:
        return tuple(self(i) for i in range(n))

    @classmethod
    def constant(cls, v: int) -> "BranchRule":
        return cls(lambda _n: v, name=f"const({v})")

    @classmethod
    def padded(cls, stem: Seq, pad: int = 0) -> "BranchRule":
        """The branch that starts with ``stem`` and continues with ``pad``."""
        return cls(lambda n: stem[n] if n < len(stem) else pad,
                   name=f"{seq_to_text(stem)}+{pad}...")

    @classmethod
    def periodic(cls, word: Seq) -> "BranchRule":
        if not word:
            raise ValueError("periodic branch needs a nonempty word")
        return cls(lambda n: word[n % len(word)], name=f"({seq_to_text(word)})*")

    def __repr__(self) -> str:
        return f"BranchRule({self.name})"


SeqLike = Union[Seq, BranchRule]


def restrict(s: SeqLike, n: int) -> Seq:
    """First ``n`` entries of a finite sequence or a branch."""
    if isinstance(s, BranchRule):
        return s.prefix(n)
    if n > len(s):
        raise ValueError(f"cannot restrict a length-{len(s)} sequence to {n}")
    return s[:n]


def is_prefix(s: Seq, t: SeqLike) -> bool:
    if isinstance(t, BranchRule):
        return t.prefix(len(s)) == s
    return len(s) <= len(t) and t[: len(s)] == s


def seq_to_text(s: Seq) -> str:
    """Dot-separated rendering; the empty sequence renders as an epsilon."""
    return ".".join(str(v) for v in s) if s else "ε"


def seq_from_text(text: str) -> Seq:
    text = text.strip()
    if text in ("ε", ""):
        return ()
    parts = text.split(".")
    out = []
    for p in parts:
        if not p.isdigit():
            raise ValueError(f"bad sequence text: {text!r}")
        out.append(int(p))
    return tuple(out)


# -- canonical pairing and fair enumerations ---------------------------------

def pair(x: int, y: int) -> int:
    """Cantor pairing; a bijection from pairs of naturals onto the naturals."""
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


def seq_at(n: int) -> Seq:
    """The n-th finite sequence in the canonical fair order (0 is empty)."""
    out: list[int] = []
    while n:
        n, last = unpair(n - 1)
        out.append(last)
    out.reverse()
    return tuple(out)


def seq_index(s: Seq) -> int:
    """Inverse of ``seq_at``."""
    i = 0
    for v in s:
        i = pair(i, v) + 1
    return i


def tuple_at(n: int, length: int) -> Seq:
    """The n-th sequence of exactly ``length`` entries (a bijection):
    ``unpair`` peels the entries off, the last one first."""
    if length == 0:
        if n:
            raise ValueError("only one sequence of length 0")
        return ()
    out = [0] * length
    for i in range(length - 1, 0, -1):
        n, out[i] = unpair(n)
    out[0] = n
    return tuple(out)


def tuple_index(t: Seq) -> int:
    """Inverse of ``tuple_at`` for nonempty tuples.  Public API: the
    library itself only needs the forward direction."""
    if not t:
        return 0
    n = t[0]
    for v in t[1:]:
        n = pair(n, v)
    return n
