"""Symmetric and hyperoctahedral group realizations of the level-1 posets.

Admissible orderings of the signed index set correspond to signed
permutations; packet flips become left multiplications by simple reflections,
identifying the level-1 flip poset with the weak left Bruhat order.  Maximal
chains read off their edges' letters as reduced words for the longest element
(chain_words), and one walk over that table checks that level-2 flips and
commuting swaps act on the words as braid moves of arity 3 or 4 and 2.

Both families live in the hyperoctahedral group: a type A permutation is a
signed permutation with a positive window.  Roots are type B only: e_i,
e_i - e_j and e_i + e_j for i > j.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .core import BElem, enumerate_B
from .orders import (
    BruhatPoset,
    TotalOrder,
    _coding,
    _flip_runs,
    _paths,
    _placed,
    _slots,
    build_poset,
    enumerate_admissible,
    flip_candidates,   # not called here; bench/tracing.py wraps it in this module
    inversion_set,
    packet_flip,       # likewise
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
        if {abs(v) for v in self.images} != set(range(1, n + 1)):
            raise ValueError(f"not a signed permutation window: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 0 < abs(i) <= self.n:
            raise ValueError(f"index {i} is not a signed index of rank {self.n}")
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other."""
        w = self.images
        return SignedPermutation(tuple(w[v - 1] if v > 0 else -w[-v - 1]
                                       for v in other.images))

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


def _root(terms) -> Root:
    """The root sum of sign(t) e_|t| over one or two signed indices t."""
    i = max(terms, key=abs)
    sign = 1 if i > 0 else -1
    if len(terms) == 1:
        return Root("short", abs(i), 0, sign)
    j = min(terms, key=abs)
    return Root("sum" if i * j > 0 else "diff", abs(i), abs(j), sign)


def root_of(K) -> Root:
    """Bijection from level-2 type B elements to positive roots."""
    if isinstance(K, BElem) and K.level == 2:
        if K.kind == "star":
            return _root(K.entries[:1])
        a, b = K.entries
        return _root((-a, b))
    raise ValueError(f"not a level-2 type B element: {K!r}")


def act(pi: SignedPermutation, alpha: Root) -> Root:
    """Image of a root under the reflection representation."""
    s = alpha.sign
    if alpha.kind == "short":
        return _root((pi(s * alpha.i),))
    t = s if alpha.kind == "sum" else -s
    return _root((pi(s * alpha.i), pi(t * alpha.j)))


def weyl_inversions(pi: SignedPermutation) -> frozenset[Root]:
    """Positive roots sent to negative roots."""
    return frozenset(a for a in positive_roots_b(pi.n) if not act(pi, a).positive)


def weyl_length(pi: SignedPermutation) -> int:
    """len(weyl_inversions(pi)) on the window: f(e_i) = i is positive on the
    positive roots, so pi makes e_i, e_i - e_j and e_i + e_j (j < i) negative
    exactly when pi(i) < 0, pi(i) < pi(j) and pi(i) + pi(j) < 0."""
    w = pi.images
    return sum((v < 0) + sum((v < u) + (v + u < 0) for u in w[:i])
               for i, v in enumerate(w))


def longest_a(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(n, 0, -1)))


@lru_cache(maxsize=None)
def simple_reflections(family: str, n: int) -> dict:
    """Generator index g -> simple reflection s_g.

    Both Weyl groups are groups of signed permutations: type A is the
    subgroup of B_n on positive windows, generated by s_1 ... s_{n-1}, and
    only type B has s_0.
    """
    if family not in ("A", "B"):
        raise ValueError(f"unknown family {family!r}")
    return {g: simple_reflection_b(n, g) for g in range(family == "A", n)}


# ---------------------------------------------------------------------------
# orderings <-> group elements
# ---------------------------------------------------------------------------

def order_to_perm(rho: TotalOrder) -> SignedPermutation:
    """The permutation sending the element in slot i to i, read on codes.

    The last n codes of the packet table are the elements 1..n.  With
    o = |ground| - n, slot t is labelled t - o + 1 when t >= o, else t - o:
    type A slots run 1..n, type B slots -n..-1, 1..n.  In type B codes o-1-j
    and o+j are -(j+1) and j+1, and admissibility forces their labels to be
    negatives (a signed permutation), which is checked.
    """
    if rho.k != 1:
        raise ValueError("only level-1 orderings correspond to permutations")
    return _slots_to_perm(_placed(rho)[2], rho.n)


def _slots_to_perm(pos: list[int], n: int) -> SignedPermutation:
    """order_to_perm of the level-1 ordering with pos[c] the slot of code c."""
    offset = len(pos) - n
    label = [t - offset + (t >= offset) for t in pos]
    for j in range(offset):
        if label[offset - 1 - j] != -label[offset + j]:
            raise InvalidOrderingError(
                f"ordering is not negation-reversed at {j + 1}")
    return SignedPermutation(tuple(label[offset:]))


class InvalidOrderingError(ValueError):
    """Level-1 ordering does not map onto the hyperoctahedral group."""


# ---------------------------------------------------------------------------
# weak orders
# ---------------------------------------------------------------------------

@dataclass
class WeakOrderGraph:
    """Covering graph of a weak left order: w -> s w when length rises."""

    n: int
    ranks: dict           # window tuple -> length
    edges: set            # (src window, dst window, generator index)


def weak_order(family: str, n: int) -> WeakOrderGraph:
    """The family's weak left order: B_n, or its positive windows in type A."""
    reflections = simple_reflections(family, n)
    elems = (all_signed_permutations(n) if family == "B" else
             [SignedPermutation(w) for w in itertools.permutations(range(1, n + 1))])
    ranks = {w.images: weyl_length(w) for w in elems}
    edges = set()
    for w in elems:
        for g, s in reflections.items():
            nxt = s.compose(w)
            if ranks[nxt.images] == ranks[w.images] + 1:
                edges.add((w.images, nxt.images, g))
    return WeakOrderGraph(n, ranks, edges)


def iso_check(n: int) -> bool:
    """Level-1 type B flip poset matches the weak order edge-by-edge: classes
    map bijectively onto signed permutations, and the edges, as (src window,
    dst window, letter), are the weak order's edges (w, s_g w, g), each once,
    so each flip edge is a left multiplication by its letter's reflection."""
    return _iso_check(build_poset("B", n, 1))


def _iso_check(poset: BruhatPoset) -> bool:
    """iso_check on the already built build_poset(family, n, 1), against
    that family's weak order: one poset edge per weak-order edge."""
    weak = weak_order(poset.family, poset.n)
    window = [_slots_to_perm(_slots(nd.canon), poset.n).images for nd in poset.nodes]
    if len(set(window)) != len(weak.ranks) or any(
            weak.ranks[w] != nd.rank for w, nd in zip(window, poset.nodes)):
        return False
    mapped = {(window[src], window[dst], gen)
              for (src, dst, _c), gen in zip(poset.edges, _edge_letters(poset))}
    return len(poset.edges) == len(mapped) and mapped == weak.edges


def _edge_letters(p: BruhatPoset) -> list[int]:
    """Each edge's letter g, as chain_to_word reads it: the flip of the source's
    one ordering moves w to s_g w, g its last slot moved less |ground| - n."""
    coding = _coding(p.family, p.n, 1)
    offset = len(coding.ground) - p.n
    return [_flip_runs(seq := list(p.nodes[s].canon), _slots(seq), coding.labels[c][1])
            - offset for s, _d, c in p.edges]


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

    def evaluate(self) -> SignedPermutation:
        return self._element

    def is_reduced(self) -> bool:
        return weyl_length(self._element) == len(self.letters)

    @cached_property
    def _element(self) -> SignedPermutation:
        """The product, evaluated once on an integer window.

        s_g w swaps the values g and g + 1 of w's window and their negatives
        (g = 0 negates 1 in type B): on the inverse window w^-1 s_g that is
        the swap of slots g and g + 1, or the negation of slot 1.
        """
        reflections = simple_reflections(self.family, self.n)
        inv = list(range(1, self.n + 1))
        for g in self.letters:
            if g not in reflections:
                raise ValueError(f"generator index out of range: {g}")
            if g:
                inv[g - 1], inv[g] = inv[g], inv[g - 1]
            else:
                inv[0] = -inv[0]
        return SignedPermutation(tuple(inv)).inverse()

    def as_applied(self) -> str:
        return " ".join(f"s{g}" for g in self.letters)


def chain_to_word(labels, family: str, n: int) -> ReducedWord:
    """Replay a maximal chain's flip labels into a reduced word.

    The replay runs on element codes (orders._coding) from rho_min.  A flip
    reverses each component's run of slots in place (orders._flip_runs) and
    multiplies the permutation on the left by the simple reflection of the
    last slot moved, less |ground| - n (slots run 1..n in type A and -n..-1,
    1..n in type B).  A maximal chain flips each label once.  The letters are
    collected in application order.
    """
    coding = _coding(family, n, 1)
    if len(labels) != len(coding.labels):
        raise ChainError(f"chain has {len(labels)} labels, expected {len(coding.labels)}")
    least = list(range(len(coding.ground)))     # rho_min, as codes
    offset = len(coding.ground) - n
    seq, pos = least[:], least[:]
    letters = []
    for K in labels:
        i = coding.label_code.get(K)
        if i is None:
            raise ChainError(f"label {K} is not a level-2 element")
        last = _flip_runs(seq, pos, coding.labels[i][1])
        if last < 0:
            raise ChainError(f"label {K} is not flippable at its step")
        letters.append(last - offset)
    if seq[::-1] != least:
        raise ChainError("chain does not reach the longest element")
    return ReducedWord(family, n, tuple(letters))


def chain_words(p: BruhatPoset) -> dict:
    """Each maximal chain of the level-1 poset p, as its label codes (a
    level-2 ordering on the codes of _coding(family, n, 2)), mapped to its
    letters, read off p's edges (_edge_letters) in maximal_chains order."""
    if p.k != 1:
        raise ValueError(f"chain words are read off a level-1 poset, got level {p.k}")
    tokens = list(zip([c for _s, _d, c in p.edges], _edge_letters(p)))
    return dict(zip(*path) if path else ((), ()) for path in _paths(p, tokens))


def braid_classify(K) -> str:
    """Braid arity of the flip at a level-3 element: "m3" or "m4"."""
    if isinstance(K, BElem) and K.level == 3:
        return "m4" if K.kind == "star" else "m3"
    if (isinstance(K, tuple) and len(K) == 3 and all(isinstance(v, int) for v in K)
            and 0 < K[0] < K[1] < K[2]):    # a type A subset, as parse_element reads it
        return "m3"
    raise ValueError(f"not a level-3 element: {K!r}")


def reduced_words_brute(family: str, n: int) -> set[tuple[int, ...]]:
    """All reduced words for the longest element: the edge labels of the paths
    in weak_order(family, n) from the identity to the closed-form longest
    element, which is not read off the graph, so a wrong graph lists none."""
    succ: dict = {}
    for src, dst, g in weak_order(family, n).edges:
        succ.setdefault(src, []).append((dst, g))
    longest = (longest_b(n) if family == "B" else longest_a(n)).images
    words, stack = set(), [(identity_b(n).images, ())]
    while stack:
        w, word = stack.pop()
        if w == longest:
            words.add(word)
        for nxt, g in succ.get(w, ()):
            stack.append((nxt, word + (g,)))
    return words


def level1_group_bijection_check(n: int) -> tuple[bool, int]:
    """Admissible level-1 orderings biject onto signed permutations: (ok, orderings)."""
    orderings = enumerate_admissible("B", n, 1)
    perms = {order_to_perm(rho).images for rho in orderings}
    import math
    return len(perms) == len(orderings) == 2 ** n * math.factorial(n), len(orderings)


@lru_cache(maxsize=None)
def _generator_order(family: str, n: int, a: int, b: int) -> int:
    """Order of s_a s_b, found by multiplying the two reflections out."""
    reflections = simple_reflections(family, n)
    product = reflections[a].compose(reflections[b])
    cur, m = product, 1
    while cur != identity_b(n):
        cur, m = product.compose(cur), m + 1
    return m


def braid_correspondence(words: dict, family: str, n: int) -> tuple[tuple, tuple]:
    """Level-2 flips act on chain words as braid moves, and swaps of commuting
    labels as commutations: ((ok, flips), (ok, swaps)), in one walk.

    words is chain_words(build_poset(family, n, 1)), keyed by the admissible
    level-2 orderings on codes.  A move of arity m at slot lo reverses slots
    lo .. lo+m-1 of an ordering (_move_spans).  The neighbour must be a key
    whose word differs from this one exactly on those slots, where an
    alternating block (a, b, a, ...) becomes (b, a, b, ...) and s_a s_b has
    order m.  The walk covers the whole table: a failed flip does not fail
    the swaps, nor a failed swap the flips.
    """
    coding = _coding(family, n, 2)
    windows = _flip_windows(coding.labels)
    ok, moves = [True, True], [0, 0]      # flips, swaps
    for codes, w1 in words.items():
        for lo, m in _move_spans(codes, windows, coding.partners):
            swap = m == 2
            moves[swap] += 1
            a, b = w1[lo], w1[lo + 1]
            block = (a, b) * m
            ok[swap] = ok[swap] and (
                w1[lo:lo + m] == block[:m]
                and words.get(codes[:lo] + codes[lo:lo + m][::-1] + codes[lo + m:])
                == w1[:lo] + block[1:m + 1] + w1[lo + m:]
                and _generator_order(family, n, a, b) == m)
    return (ok[0], moves[0]), (ok[1], moves[1])


def _flip_windows(labels: tuple) -> dict:
    """The packets of labels (_Coding.labels at level 2), each one component
    of 3 elements for an orbit label and 4 for a star: size -> code masks."""
    windows: dict = {}
    for _K, ((codes, mask),) in labels:
        windows.setdefault(len(codes), set()).add(mask)
    return windows


def _move_spans(codes: tuple, windows: dict, partners: tuple) -> list[tuple[int, int]]:
    """The moves from an ordering on codes, as (first slot, arity m): a flip
    where a packet fills m consecutive slots, then a swap (m = 2) of each two
    adjacent commuting codes.  A component fills consecutive slots exactly
    when its code set is the window of as many slots from its lowest, so the
    windows of each packet size are looked up by their masks (_flip_windows)."""
    pre = list(itertools.accumulate((1 << c for c in codes), operator.or_, initial=0))
    spans = [(lo, m) for m, masks in windows.items()
             for lo in range(len(codes) - m + 1) if pre[lo + m] ^ pre[lo] in masks]
    return spans + [(t, 2) for t in range(len(codes) - 1)
                    if not partners[codes[t]] >> codes[t + 1] & 1]


def check_root_inversions(n: int) -> bool:
    """Level-2 inversion sets match root inversions of the permutation.

    For every admissible level-1 ordering and every level-2 element K, K lies
    in the inversion set exactly when the permutation sends K's root out of
    the positive system.  False when there is no ordering to test.
    """
    orderings = enumerate_admissible("B", n, 1)
    roots = [(K, root_of(K)) for K in enumerate_B(n, 2)]
    for rho in orderings:
        pi = order_to_perm(rho)
        inv = inversion_set(rho)
        for K, alpha in roots:
            if (K in inv) != (not act(pi, alpha).positive):
                return False
    return bool(orderings)

