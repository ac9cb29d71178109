"""Ground sets and packets for the type A and type B higher Bruhat orders.

Type A works over k-element subsets of {1, ..., n}, ordered lexicographically.
Type B works over the signed index set J_n = {-n, ..., -1, 1, ..., n}; its
level-k ground set mixes negation orbits of k-subsets with distinct absolute
values and star-augmented positive supports.  Standard (minimal) orders are
defined for levels 1-3 only; packets exist one level further up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class UnsupportedLevelError(ValueError):
    """Raised for levels where no standard order or packet rule exists."""


# ---------------------------------------------------------------------------
# type A
# ---------------------------------------------------------------------------

def enumerate_A(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} as increasing tuples, in lexicographic order."""
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return list(itertools.combinations(range(1, n + 1), k))


# ---------------------------------------------------------------------------
# type B elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BElem:
    """A level-k type B ground element.

    An orbit element stores the preferred representative of a negation orbit
    (the entry of greatest magnitude is negative), listed negatives ascending
    then positives descending.  A star element stores its positive support in
    decreasing order; the trailing star is implicit in `kind`.
    """

    kind: str                 # "orbit" | "star"
    entries: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.entries) + (1 if self.kind == "star" else 0)

    def __str__(self) -> str:
        inner = ",".join(str(v) for v in self.entries)
        return f"[{inner},*]" if self.kind == "star" else f"[{inner}]"

    __repr__ = __str__


def normalize_orbit(raw) -> BElem:
    """Preferred representative of the negation orbit of `raw`.

    Negates the whole set if its largest-magnitude entry is positive, then
    lists negatives ascending followed by positives descending.  Idempotent,
    and invariant under negating the input.
    """
    vals = list(raw)
    if not vals or any(v == 0 for v in vals):
        raise ValueError(f"entries must be nonzero, got {vals}")
    if len({abs(v) for v in vals}) != len(vals):
        raise ValueError(f"absolute values must be distinct, got {vals}")
    if max(vals, key=abs) > 0:
        vals = [-v for v in vals]
    negs = sorted(v for v in vals if v < 0)
    pos = sorted((v for v in vals if v > 0), reverse=True)
    return BElem("orbit", tuple(negs + pos))


def star(support) -> BElem:
    """Star element with the given positive support."""
    raw = list(support)
    vals = sorted(set(raw), reverse=True)
    if len(vals) != len(raw) or any(v <= 0 for v in vals):
        raise ValueError(f"star support must be distinct positive, got {raw}")
    return BElem("star", tuple(vals))


def standard_key(e):
    """Sort key realizing the standard order at the element's level.

    Levels 1-3 only.  Star elements compare through their substitutes:
    [a,*] as (-a, a) and [a,b,*] as (-a, -b, b).
    """
    if isinstance(e, int):
        return (e,)
    if not isinstance(e, BElem):
        raise TypeError(f"not a type B element: {e!r}")
    if e.level == 2:
        a, b = (-e.entries[0], e.entries[0]) if e.kind == "star" else e.entries
        # two-negative elements first (lex), then single-negative ones
        # ordered by negative entry ascending, positive entry descending
        return (0, a, b) if b < 0 else (1, a, -b)
    if e.level == 3:
        if e.kind == "star":
            a, b, c = -e.entries[0], -e.entries[1], e.entries[1]
        else:
            a, b, c = e.entries
        if c < 0:
            return (0, a, b, c)
        if b < 0:
            return (1, a, b, -c)
        return (2, -a, -b, -c)
    raise UnsupportedLevelError(f"no standard order at level {e.level}")


def enumerate_B(n: int, k: int) -> list:
    """The type B level-k ground set in standard order (k in {1, 2, 3})."""
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if k == 1:
        return list(range(-n, 0)) + list(range(1, n + 1))
    if k not in (2, 3):
        raise UnsupportedLevelError(f"no standard order at level {k}")
    return sorted(_level_elements(n, k), key=standard_key)


def _level_elements(n: int, level: int) -> list[BElem]:
    """All level-`level` elements (2 <= level <= 4), unordered for level 4."""
    out = []
    for absvals in itertools.combinations(range(1, n + 1), level):
        top = absvals[-1]
        for signs in itertools.product((1, -1), repeat=level - 1):
            rep = [-top] + [s * v for s, v in zip(signs, absvals[:-1])]
            out.append(normalize_orbit(rep))
    for support in itertools.combinations(range(1, n + 1), level - 1):
        out.append(star(support))
    return out


# ---------------------------------------------------------------------------
# packets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Packet:
    """A packet: its member set plus the chains it is ordered by.

    `components` are the comparable components of the packet order, each a
    tuple listed in increasing packet order.  Packets at levels 2 and 3 are
    total chains; 1-packets of orbit elements split into two chains.  A type
    A packet is one chain.
    """

    elements: frozenset
    components: tuple[tuple, ...]


def packet_A(K: tuple[int, ...]) -> Packet:
    """The packet of K: its (|K|-1)-subsets, one chain in lexicographic order."""
    if len(K) < 2:
        raise ValueError(f"packet needs |K| >= 2, got {K}")
    chain = tuple(itertools.combinations(K, len(K) - 1))
    return Packet(frozenset(chain), (chain,))


def packet_B(K: BElem) -> Packet:
    """The packet of a level 2-4 element K, with its component chains."""
    lvl = K.level
    if lvl < 2 or lvl > 4:
        raise UnsupportedLevelError(f"packets defined for levels 2-4, got {lvl}")
    if lvl == 2:
        if K.kind == "star":
            k = K.entries[0]
            return Packet(frozenset((-k, k)), ((-k, k),))
        j, i = K.entries
        # one chain per sign class of the orbit, oriented per the packet order
        return Packet(frozenset((j, i, -i, -j)), ((j, i), (-i, -j)))
    if K.kind == "orbit":
        members = {normalize_orbit(c)
                   for c in itertools.combinations(K.entries, lvl - 1)}
    else:
        support = K.entries
        signed = [s * v for v in support for s in (1, -1)]
        members = {normalize_orbit(c)
                   for c in itertools.combinations(signed, lvl - 1)
                   if len({abs(v) for v in c}) == lvl - 1}
        members.update(star(c) for c in itertools.combinations(support, lvl - 2))
    chain = tuple(sorted(members, key=standard_key))
    return Packet(frozenset(members), (chain,))


# ---------------------------------------------------------------------------
# text round-trip
# ---------------------------------------------------------------------------

def format_element(e) -> str:
    """Canonical text form: orbit "[-3,2]", star "[2,1,*]", type A "{1,2}"."""
    if isinstance(e, int):
        return str(e)
    if isinstance(e, BElem):
        return str(e)
    if isinstance(e, tuple):
        return "{" + ",".join(str(v) for v in e) + "}"
    raise TypeError(f"cannot format {e!r}")


def parse_element(text: str):
    """Inverse of format_element (orbit input need not be preferred)."""
    s = text.strip().replace(" ", "")
    if s.startswith("{") and s.endswith("}"):
        vals = tuple(int(v) for v in s[1:-1].split(","))
        if list(vals) != sorted(set(vals)) or any(v < 1 for v in vals):
            raise ValueError(f"type A subset must be increasing positive: {text}")
        return vals
    if s.startswith("[") and s.endswith("]"):
        parts = s[1:-1].split(",")
        if not 2 <= len(parts) <= 4:    # the level, counting a star
            raise ValueError(f"bracket elements have levels 2-4, got {text!r}")
        if parts[-1] == "*":
            return star(int(v) for v in parts[:-1])
        return normalize_orbit(int(v) for v in parts)
    return _parse_signed_index(s)


def _parse_signed_index(s: str) -> int:
    v = int(s)
    if v == 0:
        raise ValueError("0 is not a signed index")
    return v
