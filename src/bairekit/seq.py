"""Finite sequences of naturals and eventually periodic branches.

Finite sequences are plain tuples of non-negative ints.  A branch, a point
of the Baire space, is a ``BranchRule``: a finite stem followed by a
nonempty word repeated forever.  It is read by prefix; no equality is
defined for branches, only prefix comparison to a caller-supplied depth.
"""

from __future__ import annotations

from math import isqrt

Seq = tuple[int, ...]


class BranchRule:
    """The branch ``stem + word + word + ...``, read through ``prefix``.

    Every entry is checked to be a natural once, when the rule is built.
    """

    __slots__ = ("stem", "word")

    def __init__(self, stem: Seq, word: Seq):
        if not word:
            raise ValueError("a branch needs a nonempty repeating word")
        for v in (*stem, *word):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"branch entry is not a natural: {v!r}")
        self.stem = stem
        self.word = word

    def prefix(self, n: int) -> Seq:
        """The first ``n >= 0`` entries; below the stem's length the repeat
        count is not positive and the word adds nothing."""
        k = (n - len(self.stem)) // len(self.word) + 1
        return (self.stem + self.word * k)[:n]

    @classmethod
    def constant(cls, v: int) -> "BranchRule":
        return cls((), (v,))

    @classmethod
    def padded(cls, stem: Seq, pad: int = 0) -> "BranchRule":
        """The branch that starts with ``stem`` and continues with ``pad``."""
        return cls(stem, (pad,))

    @classmethod
    def periodic(cls, word: Seq) -> "BranchRule":
        return cls((), word)

    def __repr__(self) -> str:
        return (f"BranchRule({seq_to_text(self.stem)}"
                f"+({seq_to_text(self.word)})*)")


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
