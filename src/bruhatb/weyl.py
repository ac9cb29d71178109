"""Symmetric and hyperoctahedral group realizations of the level-1 posets.

Admissible orderings of the signed index set correspond to signed
permutations; packet flips become left multiplications by simple reflections,
identifying the level-1 flip poset with the weak left Bruhat order.  Maximal
chains then read off as reduced words for the longest element.

Root conventions differ by family on purpose: type A uses positive roots
e_i - e_j for i < j, type B uses e_i, e_i - e_j and e_i + e_j for i > j.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .core import BElem, enumerate_B
from .orders import (
    TotalOrder,
    build_poset,
    enumerate_admissible,
    flip_candidates,
    inversion_set,
    packet_flip,
    rho_min,
)


class ChainError(ValueError):
    """Raised when a label sequence is not a maximal chain."""


# ---------------------------------------------------------------------------
# signed permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedPermutation:
    """Element of the hyperoctahedral group in window notation.

    images[i-1] is the image of i; the action extends to negative indices by
    pi(-i) = -pi(i).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation window: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other."""
        return SignedPermutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return SignedPermutation(tuple(inv))

    def __str__(self) -> str:
        return "[" + ", ".join(str(v) for v in self.images) + "]"


def identity_b(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


def longest_b(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(-i for i in range(1, n + 1)))


def simple_reflection_b(n: int, g: int) -> SignedPermutation:
    """Generator g: 0 negates index 1, g >= 1 swaps indices g and g+1."""
    if not 0 <= g <= n - 1:
        raise ValueError(f"generator index out of range: {g}")
    images = list(range(1, n + 1))
    if g == 0:
        images[0] = -1
    else:
        images[g - 1], images[g] = g + 1, g
    return SignedPermutation(tuple(images))


def all_signed_permutations(n: int) -> list[SignedPermutation]:
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPermutation(tuple(s * v for s, v in zip(signs, perm))))
    return out


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """A type B root: sign * e_i (short) or sign * (e_i -/+ e_j) with i > j."""

    kind: str   # "short" | "diff" | "sum"
    i: int
    j: int = 0
    sign: int = 1

    def __str__(self) -> str:
        if self.kind == "short":
            body = f"e{self.i}"
        else:
            op = "-" if self.kind == "diff" else "+"
            body = f"e{self.i}{op}e{self.j}"
        return body if self.sign > 0 else f"-({body})"

    @property
    def positive(self) -> bool:
        return self.sign > 0


def positive_roots_b(n: int) -> list[Root]:
    """The n^2 positive roots: short e_i, long e_i -/+ e_j for i > j."""
    out = [Root("short", i) for i in range(1, n + 1)]
    for i in range(2, n + 1):
        for j in range(1, i):
            out.append(Root("diff", i, j))
            out.append(Root("sum", i, j))
    return out


def root_of(K) -> Root:
    """Bijection from level-2 type B elements to positive roots."""
    if isinstance(K, BElem) and K.level == 2:
        if K.kind == "star":
            return Root("short", K.entries[0])
        a, b = K.entries
        i, j = abs(a), abs(b)
        if i < j:
            i, j = j, i
        return Root("diff", i, j) if a * b > 0 else Root("sum", i, j)
    raise ValueError(f"not a level-2 type B element: {K!r}")


def root_of_a(S: tuple[int, int]) -> tuple[int, int]:
    """Type A: the 2-subset {i, j} with i < j stands for e_i - e_j."""
    i, j = S
    if not i < j:
        raise ValueError(f"expected an increasing pair, got {S}")
    return (i, j)


def act(pi: SignedPermutation, alpha: Root) -> Root:
    """Image of a root under the reflection representation."""
    def image(idx: int) -> tuple[int, int]:
        v = pi(idx)
        return abs(v), (1 if v > 0 else -1)

    ai, si = image(alpha.i)
    if alpha.kind == "short":
        return Root("short", ai, 0, alpha.sign * si)
    aj, sj = image(alpha.j)
    cj = sj if alpha.kind == "sum" else -sj
    # vector is si*e_ai + cj*e_aj, with ai != aj
    if ai < aj:
        ai, aj = aj, ai
        si, cj = cj, si
    if si > 0:
        return Root("diff" if cj < 0 else "sum", ai, aj, alpha.sign)
    return Root("diff" if cj > 0 else "sum", ai, aj, -alpha.sign)


def weyl_inversions(pi: SignedPermutation) -> frozenset[Root]:
    """Positive roots sent to negative roots."""
    return frozenset(a for a in positive_roots_b(pi.n) if not act(pi, a).positive)


def weyl_length(pi: SignedPermutation) -> int:
    return len(weyl_inversions(pi))


# type A counterparts over plain permutations (window tuples)

def inversions_a(w: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    n = len(w)
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                     if w[i - 1] > w[j - 1])


def length_a(w: tuple[int, ...]) -> int:
    return len(inversions_a(w))


def simple_reflection_a(n: int, g: int) -> tuple[int, ...]:
    if not 1 <= g <= n - 1:
        raise ValueError(f"generator index out of range: {g}")
    images = list(range(1, n + 1))
    images[g - 1], images[g] = g + 1, g
    return tuple(images)


def compose_a(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(u[v[i] - 1] for i in range(len(u)))


def longest_a(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


@dataclass(frozen=True)
class GroupTable:
    """What replaying words needs of the type A or type B Weyl group.

    `reflections` maps each generator index g to the simple reflection s_g.
    """

    identity: object
    reflections: dict
    compose: Callable     # (u, v) -> u after v
    length: Callable
    longest: object

    def mult(self, g: int, w):
        """The product s_g w."""
        if g not in self.reflections:
            raise ValueError(f"generator index out of range: {g}")
        return self.compose(self.reflections[g], w)

    def letter(self, w, v):
        """The generator g with s_g w = v, or None when there is none."""
        return next((g for g in self.reflections if self.mult(g, w) == v), None)


@lru_cache(maxsize=None)
def group_table(family: str, n: int) -> GroupTable:
    if family == "A":
        return GroupTable(tuple(range(1, n + 1)),
                          {g: simple_reflection_a(n, g) for g in range(1, n)},
                          compose_a, length_a, longest_a(n))
    if family == "B":
        return GroupTable(identity_b(n),
                          {g: simple_reflection_b(n, g) for g in range(n)},
                          SignedPermutation.compose, weyl_length, longest_b(n))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# orderings <-> group elements
# ---------------------------------------------------------------------------

def order_to_perm(rho: TotalOrder):
    """The permutation sending the element in slot i to i.

    Type B slots run -n..-1, 1..n; admissibility forces the result to be a
    signed permutation (negation-reversed ordering), which is checked.
    """
    if rho.k != 1:
        raise ValueError("only level-1 orderings correspond to permutations")
    if rho.family == "A":
        images = [0] * rho.n
        for slot, e in enumerate(rho.seq, start=1):
            images[e[0] - 1] = slot
        return tuple(images)
    n = rho.n
    labels = list(range(-n, 0)) + list(range(1, n + 1))
    mapping = {e: lab for e, lab in zip(rho.seq, labels)}
    images = tuple(mapping[i] for i in range(1, n + 1))
    for i in range(1, n + 1):
        if mapping[-i] != -mapping[i]:
            raise InvalidOrderingError(
                f"ordering is not negation-reversed at {i}")
    return SignedPermutation(images)


class InvalidOrderingError(ValueError):
    """Level-1 ordering does not map onto the hyperoctahedral group."""


def perm_to_order(pi: SignedPermutation) -> TotalOrder:
    """Inverse of order_to_perm for type B."""
    n = pi.n
    inv = pi.inverse()
    labels = list(range(-n, 0)) + list(range(1, n + 1))
    return TotalOrder("B", n, 1, tuple(inv(lab) for lab in labels))


# ---------------------------------------------------------------------------
# weak orders
# ---------------------------------------------------------------------------

@dataclass
class WeakOrderGraph:
    """Covering graph of a weak left order: w -> s w when length rises."""

    n: int
    ranks: dict           # window tuple -> length
    edges: set            # (src window, dst window, generator index)


def weak_order_poset(n: int) -> WeakOrderGraph:
    """Weak left order on the hyperoctahedral group."""
    return _weak_order("B", n, all_signed_permutations(n), lambda pi: pi.images)


def weak_order_poset_a(n: int) -> WeakOrderGraph:
    """Weak left order on the symmetric group."""
    return _weak_order("A", n, list(itertools.permutations(range(1, n + 1))),
                       lambda w: w)


def _weak_order(family: str, n: int, elems, window) -> WeakOrderGraph:
    table = group_table(family, n)
    ranks = {window(w): table.length(w) for w in elems}
    edges = set()
    for w in elems:
        for g in table.reflections:
            nxt = table.mult(g, w)
            if ranks[window(nxt)] == ranks[window(w)] + 1:
                edges.add((window(w), window(nxt), g))
    return WeakOrderGraph(n, ranks, edges)


def iso_check(n: int) -> bool:
    """Level-1 type B flip poset matches the weak order edge-by-edge.

    Classes map bijectively onto signed permutations and every flip edge is a
    left multiplication by a simple reflection, with matching cover sets.
    """
    poset = build_poset("B", n, 1)
    weak = weak_order_poset(n)
    window = {}
    for key, node in poset.nodes.items():
        pi = order_to_perm(node.canon)
        window[key] = pi
        if weak.ranks[pi.images] != node.rank:
            return False
    if len({pi.images for pi in window.values()}) != len(weak.ranks):
        return False
    table = group_table("B", n)
    mapped = set()
    for src, dst, _K in poset.edges:
        gen = table.letter(window[src], window[dst])
        if gen is None:
            return False
        mapped.add((window[src].images, window[dst].images, gen))
    return mapped == weak.edges


# ---------------------------------------------------------------------------
# reduced words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedWord:
    """A word in the simple reflections, letters in application order.

    The group element it names is the product of the letters taken right to
    left, i.e. the displayed product is the reversed letter sequence.
    """

    family: str
    n: int
    letters: tuple[int, ...]

    def evaluate(self):
        table = group_table(self.family, self.n)
        w = table.identity
        for g in self.letters:
            w = table.mult(g, w)
        return w

    def is_reduced(self) -> bool:
        length = group_table(self.family, self.n).length(self.evaluate())
        return length == len(self.letters)

    def as_applied(self) -> str:
        return " ".join(f"s{g}" for g in self.letters)

    def as_product(self) -> str:
        return " ".join(f"s{g}" for g in reversed(self.letters))


def chain_to_word(labels, family: str, n: int) -> ReducedWord:
    """Replay a maximal chain's flip labels into a reduced word.

    Each flip of a level-1 ordering multiplies the corresponding permutation
    on the left by one simple reflection; the letters are collected in
    application order.
    """
    table = group_table(family, n)
    expected = {"A": n * (n - 1) // 2, "B": n * n}[family]
    if len(labels) != expected:
        raise ChainError(f"chain has {len(labels)} labels, expected {expected}")
    rho = rho_min(family, n, 1)
    prev = order_to_perm(rho)
    letters = []
    for K in labels:
        if K not in flip_candidates(rho):
            raise ChainError(f"label {K} is not flippable at its step")
        rho = packet_flip(rho, K)
        cur = order_to_perm(rho)
        g = table.letter(prev, cur)
        if g is None:
            raise ChainError("flip step is not a simple reflection")
        letters.append(g)
        prev = cur
    if prev != table.longest:
        raise ChainError("chain does not reach the longest element")
    return ReducedWord(family, n, tuple(letters))


def braid_classify(K) -> str:
    """Braid arity of the flip at a level-3 element: "m3" or "m4"."""
    if isinstance(K, BElem) and K.level == 3:
        return "m4" if K.kind == "star" else "m3"
    if isinstance(K, tuple) and len(K) == 3:
        return "m3"
    raise ValueError(f"not a level-3 element: {K!r}")


def reduced_words_brute(family: str, n: int) -> set[tuple[int, ...]]:
    """All reduced words for the longest element, by length-increasing DFS."""
    table = group_table(family, n)
    words: set[tuple[int, ...]] = set()
    stack = [(table.identity, ())]
    lengths = {table.identity: 0}
    while stack:
        w, word = stack.pop()
        if w == table.longest:
            words.add(word)
            continue
        lw = lengths[w]
        for g in table.reflections:
            nxt = table.mult(g, w)
            ln = lengths.get(nxt)
            if ln is None:
                ln = lengths[nxt] = table.length(nxt)
            if ln == lw + 1:
                stack.append((nxt, word + (g,)))
    return words


def level1_group_bijection_check(n: int) -> bool:
    """Admissible level-1 orderings map bijectively onto signed permutations."""
    perms = set()
    for rho in enumerate_admissible("B", n, 1):
        perms.add(order_to_perm(rho).images)
    import math
    return len(perms) == 2 ** n * math.factorial(n)


def _generator_order(family: str, n: int, a: int, b: int) -> int:
    """Order of the product of two simple reflections."""
    table = group_table(family, n)
    cur, m = table.mult(a, table.mult(b, table.identity)), 1
    while cur != table.identity:
        cur, m = table.mult(a, table.mult(b, cur)), m + 1
    return m


def _chain_words(n: int) -> dict:
    """Word letters per admissible level-2 ordering, via chain replay."""
    return {rho.seq: chain_to_word(rho.seq, "B", n).letters
            for rho in enumerate_admissible("B", n, 2)}


def flip_braid_correspondence(n: int) -> bool:
    """Level-2 flips act on chain words as braid moves of the right arity.

    Flipping an orbit element replaces an alternating block s t s by t s t
    (generators of order 3); flipping a star element replaces s t s t by
    t s t s (order 4).  Letters outside the flipped block are untouched.
    """
    words = _chain_words(n)
    for rho in enumerate_admissible("B", n, 2):
        w1 = words[rho.seq]
        for K in flip_candidates(rho):
            w2 = words[packet_flip(rho, K).seq]
            diff = [t for t in range(len(w1)) if w1[t] != w2[t]]
            arity = 3 if braid_classify(K) == "m3" else 4
            if len(diff) != arity or diff != list(range(diff[0], diff[-1] + 1)):
                return False
            lo = diff[0]
            a, b = w1[lo], w1[lo + 1]
            if a == b:
                return False
            if list(w1[lo:lo + arity]) != [a, b] * (arity // 2) + [a] * (arity % 2):
                return False
            if list(w2[lo:lo + arity]) != [b, a] * (arity // 2) + [b] * (arity % 2):
                return False
            if _generator_order("B", n, a, b) != arity:
                return False
    return True


def swap_commutation_correspondence(n: int) -> bool:
    """Order swaps of commuting labels exchange two commuting word letters."""
    from .orders import commutes
    words = _chain_words(n)
    for rho in enumerate_admissible("B", n, 2):
        w1 = words[rho.seq]
        for t in range(len(rho.seq) - 1):
            a, b = rho.seq[t], rho.seq[t + 1]
            if not commutes(a, b, "B", n, 2):
                continue
            swapped = rho.seq[:t] + (b, a) + rho.seq[t + 2:]
            w2 = words[swapped]
            if [u for u in range(len(w1)) if w1[u] != w2[u]] != [t, t + 1]:
                return False
            if (w1[t], w1[t + 1]) != (w2[t + 1], w2[t]):
                return False
            if _generator_order("B", n, w1[t], w1[t + 1]) != 2:
                return False
    return True


@lru_cache(maxsize=None)
def check_root_inversions(n: int) -> bool:
    """Level-2 inversion sets match root inversions of the permutation.

    For every admissible level-1 ordering and every level-2 element K, K lies
    in the inversion set exactly when the permutation sends K's root out of
    the positive system.
    """
    for rho in enumerate_admissible("B", n, 1):
        pi = order_to_perm(rho)
        inv = inversion_set(rho)
        for K in enumerate_B(n, 2):
            if (K in inv) != (not act(pi, root_of(K)).positive):
                return False
    return True

