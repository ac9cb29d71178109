"""Admissible orderings, packet flips, commutation classes, and flip posets.

A total ordering of a ground set is admissible when its restriction to every
packet agrees with the packet order or its reverse.  Packet flips reverse the
comparable components of one packet in place; quotienting by swaps of adjacent
commuting elements and closing under flips yields a graded poset with the
inversion set as rank function.  The poset is kept on the integer codes of
_coding: node ids, inversion masks and label-code edges (BruhatPoset).
build_poset keys classes by their heaps (_heap_bfs, the reference), except
where every two elements share a packet (level 1, A(n, n-1), B(2,2)): then no
two commute, every class is one ordering, and _ordering_bfs skips the heaps.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from .core import (
    UnsupportedLevelError,
    _level_elements,
    enumerate_A,
    enumerate_B,
    format_element,
    packet_A,
    packet_B,
    parse_element,
)


class InadmissibleOrderError(ValueError):
    """Raised when an operation requires an admissible ordering."""


class FlipError(ValueError):
    """Raised when flipping an element outside the candidate set."""


class PosetOverflowError(RuntimeError):
    """Raised when a poset search exceeds the node budget."""


DEFAULT_MAX_NODES = 10 ** 6


def env_budget(name: str, default: int) -> int:
    """The budget in the environment variable name, default when it is unset;
    ValueError naming the variable unless it is a positive integer."""
    value = os.environ.get(name, str(default))
    if not value.strip().isdecimal() or (budget := int(value)) < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return budget


def ground_set(family: str, n: int, k: int) -> list:
    if family == "A":
        return enumerate_A(n, k)
    if family == "B":
        return enumerate_B(n, k)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class TotalOrder:
    """A total ordering of a full ground set, stored as a sequence."""

    family: str
    n: int
    k: int
    seq: tuple

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(self.seq))
        expected = ground_set(self.family, self.n, self.k)
        if len(self.seq) != len(expected) or set(self.seq) != set(expected):
            raise ValueError("sequence is not a permutation of the ground set")

    @cached_property
    def positions(self) -> dict:
        return {e: i for i, e in enumerate(self.seq)}

    def reverse(self) -> "TotalOrder":
        return TotalOrder(self.family, self.n, self.k, self.seq[::-1])

    def __str__(self) -> str:
        return "(" + " ".join(format_element(e) for e in self.seq) + ")"


def rho_min(family: str, n: int, k: int) -> TotalOrder:
    return TotalOrder(family, n, k, tuple(ground_set(family, n, k)))


def rho_max(family: str, n: int, k: int) -> TotalOrder:
    return rho_min(family, n, k).reverse()


class _Coding(NamedTuple):
    """The ground set numbered in standard order, and its packets on codes."""

    ground: tuple       # code -> element
    code: dict          # element -> its index in ground
    partners: tuple     # code -> mask of its packet mates (non-commuting codes)
    labels: tuple       # (K, components), each (chain of codes, mask), label order
    label_code: dict    # K -> its index in labels

    def code_of(self, e) -> int:
        """The code of e; ValueError naming e when e is not in the ground set."""
        if (c := self.code.get(e)) is None:
            raise ValueError(f"{e!r} is not in the ground set")
        return c


@lru_cache(maxsize=None)
def _coding(family: str, n: int, k: int) -> _Coding:
    """The one packet table.  The labels are the level-(k+1) elements in
    standard order, or by kind and entries at level 4, which has none."""
    ground = tuple(ground_set(family, n, k))
    if family == "A":
        upper = enumerate_A(n, k + 1) if k < n else []
    elif k < 3:
        upper = enumerate_B(n, k + 1)
    else:
        upper = sorted(_level_elements(n, 4), key=lambda e: (e.kind, e.entries))
    code = {e: c for c, e in enumerate(ground)}
    partners = [0] * len(ground)
    labels = []
    for K in upper:
        comps = []
        for chain in (packet_A(K) if family == "A" else packet_B(K)).components:
            codes = tuple(code[e] for e in chain)
            mask = sum(1 << c for c in codes)
            for c in codes:
                partners[c] |= mask & ~(1 << c)
            comps.append((codes, mask))
        labels.append((K, tuple(comps)))
    return _Coding(ground, code, tuple(partners), tuple(labels),
                   {K: i for i, K in enumerate(upper)})


def _mask_labels(labels: tuple, mask: int) -> list:
    """The labels K of _Coding.labels whose bit is set in mask, in label order."""
    return [K for i, (K, _comps) in enumerate(labels) if mask >> i & 1]


def _placed(rho: TotalOrder) -> tuple[_Coding, list[int], list[int]]:
    """rho on codes: its coding, its codes in slot order and the slot of each code."""
    coding = _coding(rho.family, rho.n, rho.k)
    seq = [coding.code[e] for e in rho.seq]
    return coding, seq, _slots(seq)


def _slots(seq: list[int]) -> list[int]:
    """pos[c]: the slot of code c in seq, a permutation of the codes."""
    pos = [0] * len(seq)
    for slot, c in enumerate(seq):
        pos[c] = slot
    return pos


def _packet_orientations(rho: TotalOrder) -> int:
    """Mask over the labels of the packets rho fully reverses.

    Raises InadmissibleOrderError when some packet is neither in packet order
    nor fully reversed (components must agree on the orientation).
    """
    coding, _seq, pos = _placed(rho)
    rev = 0
    for i, (K, comps) in enumerate(coding.labels):
        first = comps[0][0]
        back = pos[first[0]] > pos[first[1]]
        for codes, _mask in comps:
            for a, b in zip(codes, codes[1:]):
                if (pos[a] > pos[b]) != back:
                    raise InadmissibleOrderError(
                        f"packet of {format_element(K)} is inconsistently ordered")
        rev |= back << i
    return rev


def is_admissible(rho: TotalOrder) -> bool:
    """Whether every packet appears in packet order or fully reversed."""
    try:
        _packet_orientations(rho)
    except InadmissibleOrderError:
        return False
    return True


def inversion_set(rho: TotalOrder) -> frozenset:
    """The level-(k+1) elements whose packet appears fully reversed."""
    rev = _packet_orientations(rho)
    return frozenset(_mask_labels(_coding(rho.family, rho.n, rho.k).labels, rev))


def _runs(pos: list[int], comps: tuple) -> list[tuple[int, int]]:
    """The first and last slot of each component, when each fills a run of
    consecutive slots; otherwise no runs at all."""
    runs = []
    for codes, _mask in comps:
        slots = [pos[c] for c in codes]
        lo, hi = min(slots), max(slots)
        if hi - lo != len(codes) - 1:
            return []
        runs.append((lo, hi))
    return runs


def _flip_runs(seq: list[int], pos: list[int], comps: tuple) -> int:
    """Flip a packet on codes in place: reverse each component's run of
    slots in seq, keeping pos[c] the slot of code c.  Returns the last slot
    moved, or -1, changing nothing, when some component is not a run (_runs).
    """
    last = -1
    for lo, hi in _runs(pos, comps):
        seq[lo:hi + 1] = seq[lo:hi + 1][::-1]
        for i in range(lo, hi + 1):
            pos[seq[i]] = i
        last = max(last, hi)
    return last


def flip_candidates(rho: TotalOrder) -> frozenset:
    """Elements whose packet components all occupy consecutive positions."""
    coding, _seq, pos = _placed(rho)
    return frozenset(K for K, comps in coding.labels if _runs(pos, comps))


def packet_flip(rho: TotalOrder, K) -> TotalOrder:
    """Reverse each comparable component of K's packet in place."""
    coding, seq, pos = _placed(rho)
    i = coding.label_code.get(K)
    if i is None:
        raise ValueError(f"{format_element(K)} is not a level-{rho.k + 1} element")
    if _flip_runs(seq, pos, coding.labels[i][1]) < 0:
        raise FlipError(f"{format_element(K)} is not flippable here")
    return TotalOrder(rho.family, rho.n, rho.k, tuple([coding.ground[c] for c in seq]))


def commutes(a, b, family: str, n: int, k: int) -> bool:
    """Whether a and b are incomparable in every packet containing both."""
    if a == b:
        raise ValueError("commutation needs two distinct elements")
    coding = _coding(family, n, k)
    return not coding.partners[coding.code_of(a)] >> coding.code_of(b) & 1


# ---------------------------------------------------------------------------
# commutation classes and canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderClass:
    """A commutation class, held by its canonical representative."""

    canon: TotalOrder


def dependence_order(rho: TotalOrder) -> list[int]:
    """The order whose linear extensions are rho's commutation class.

    below[c] is a bitmask of the codes (indices in the standard order, see
    _coding) of the elements that precede the element of code c in every
    class member: the transitive closure of the non-commuting pairs,
    oriented as in rho (the class's heap of pieces).  Indexed by code, the
    masks are the same for every member of the class.
    """
    coding = _coding(rho.family, rho.n, rho.k)
    return _down(coding.partners, [coding.code[e] for e in rho.seq])


def _down(partners: tuple, seq, start: int = 0,
          known: list[int] | None = None) -> list[int]:
    """dependence_order of a sequence of codes; of its reverse, the up-sets.
    Walks back from each element until the partners met and their down-sets
    hold all its earlier partners.  The masks of a prefix depend only on that
    prefix, so those of seq[:start] are copied from known, the masks of a
    sequence that starts the same, and the walk goes on from slot start."""
    below = list(known) if start else [0] * len(partners)
    seen = 0
    for c in seq[:start]:
        seen |= 1 << c
    for j in range(start, len(seq)):
        c = seq[j]
        near = mask = partners[c] & seen
        while near:
            j -= 1
            p = seq[j]
            if near >> p & 1:
                mask |= below[p]
                near &= ~(below[p] | 1 << p)
        below[c] = mask
        seen |= 1 << c
    return below


def _canonical(below: list[int]) -> list[int]:
    """The least linear extension of a dependence order, as codes.

    Repeatedly places the lowest unplaced code whose down-set is placed.
    """
    left = list(range(len(below)))
    placed = 0
    out = []
    while left:
        for c in left:
            if not below[c] & ~placed:
                break
        left.remove(c)
        placed |= 1 << c
        out.append(c)
    return out


def canonical_form(rho: TotalOrder) -> OrderClass:
    """Lexicographically least member of the commutation class of rho.

    Greedy least-available linearization of the dependence order, with
    availability resolved by the standard order on ground elements.
    """
    ground = _coding(rho.family, rho.n, rho.k).ground
    seq = tuple([ground[c] for c in _canonical(dependence_order(rho))])
    return OrderClass(TotalOrder(rho.family, rho.n, rho.k, seq))


def class_members(rho: TotalOrder) -> list[TotalOrder]:
    """Every member of the commutation class by swap closure (oracles only).

    Sorted by code tuples: lexicographically, in the ground set's standard order.
    """
    coding = _coding(rho.family, rho.n, rho.k)
    start = tuple(coding.code[e] for e in rho.seq)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) - 1):
            if not coding.partners[cur[i]] >> cur[i + 1] & 1:
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return [TotalOrder(rho.family, rho.n, rho.k, tuple(coding.ground[c] for c in s))
            for s in sorted(seen)]


def class_flip_candidates(r: OrderClass) -> frozenset:
    """Labels flippable in some member of the commutation class.

    Per-component blocking: K qualifies when no element lies strictly
    between two elements of one component of K's packet in the dependence
    order (_flip_span builds the member).  Several components occur only at
    type B level 1, where the class is one ordering, so the components are
    tested one at a time.
    """
    coding, seq, _pos = _placed(r.canon)
    flips = _class_flips(coding.labels, _down(coding.partners, seq),
                         _down(coding.partners, seq[::-1]))
    return frozenset(coding.labels[i][0] for i in flips)


def _class_flips(labels: tuple, below: list[int], above: list[int],
                 skip: int = 0) -> list[int]:
    """Indices into labels of class_flip_candidates, given the class's heap: a
    component is blocked when its united up-sets and down-sets meet outside
    it.  Labels whose bit is set in skip are not tested."""
    out = []
    for i, (_K, comps) in enumerate(labels):
        if skip >> i & 1:
            continue
        for codes, mask in comps:
            up = down = 0
            for c in codes:
                up |= above[c]
                down |= below[c]
            if up & down & ~mask:
                break
        else:
            out.append(i)
    return out


def _flip_span(seq: list[int], pos: list[int], below: list[int],
               comps: tuple) -> tuple[list[int], int, int]:
    """Flip a packet (on codes) in the member of seq's class holding it
    consecutive; pos[c] is the slot of code c in seq.  Only each component's
    span, its first to its last slot, moves: what lies below the component
    in the dependence order, then the component reversed, then the rest,
    each part in the current order.  Returns the member and the first and
    last slots changed.

    seq is admissible, so each component's ends sit at its span's ends and
    the element in the last slot is above the rest of the component.  The
    spans of one packet's components are disjoint: several components occur
    only at type B level 1, where every class is one ordering.
    """
    member = list(seq)
    first, last = len(seq), 0
    for codes, mask in comps:
        lo, hi = pos[codes[0]], pos[codes[-1]]
        if lo > hi:
            lo, hi = hi, lo
        span = seq[lo:hi + 1]
        if hi - lo < len(codes):    # the component is its span: nothing between
            member[lo:hi + 1] = span[::-1]
        else:
            low = below[span[-1]] & ~mask
            member[lo:hi + 1] = ([c for c in span if low >> c & 1]
                                 + [c for c in reversed(span) if mask >> c & 1]
                                 + [c for c in span if not (low | mask) >> c & 1])
        first, last = min(first, lo), max(last, hi)
    return member, first, last


# ---------------------------------------------------------------------------
# the flip poset
# ---------------------------------------------------------------------------

@dataclass
class PosetNode:
    """A commutation class on codes, ranked by the size of its inversion set."""

    canon: tuple    # its least member, as codes of _coding(family, n, k)
    inv: int        # its inversion set, as a mask over label codes

    @property
    def rank(self) -> int:
        return self.inv.bit_count()


@dataclass
class BruhatPoset:
    """Flip poset on commutation classes, graded by inversion-set size.  Node
    0 is the minimum; elements come back only in order(i), the export
    functions and the labels of maximal_chains."""

    family: str
    n: int
    k: int
    nodes: list = field(default_factory=list)     # node id -> PosetNode
    edges: list = field(default_factory=list)     # (src id, dst id, label code)

    def order(self, i: int) -> TotalOrder:
        """The canonical form of node i as a TotalOrder."""
        ground, canon = _coding(self.family, self.n, self.k).ground, self.nodes[i].canon
        return TotalOrder(self.family, self.n, self.k, tuple([ground[c] for c in canon]))


@contextmanager
def _gc_paused():
    """Pause the process-wide cyclic GC over bulk work that creates no cycles:
    build_poset and _paths, whose results it walked for 78-123 ms per flip-k1
    pass unpaused.  An outermost pause (collector on) empties the young
    generations on entry; on exit gc.freeze(); gc.unfreeze() moves what the
    call made to the oldest generation unscanned, so no young collection walks
    it and reference counting still frees it.  A nonzero gc.get_freeze_count()
    skips that move, so a caller's frozen objects are never thawed."""
    enabled = gc.isenabled()
    if enabled:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@_gc_paused()
def build_poset(family: str, n: int, k: int) -> BruhatPoset:
    """BFS closure of packet flips starting from the minimal class.

    Node ids number the classes as found; every edge applies one flip at a
    label outside the inversion set, raising rank by one.  The node budget is
    BRUHAT_MAX_NODES, a positive integer (default DEFAULT_MAX_NODES).

    When every two codes share a packet (level 1 in both families, A(n, n-1)
    and B(2,2)), no two commute and every class is a single ordering:
    _ordering_bfs then keys classes by the ordering itself and skips the
    heaps, the canonical forms and the blocking test.  Otherwise _heap_bfs
    runs; it is the reference, and both give the same nodes and edges.
    """
    if family == "A":
        if not (1 <= k <= n):
            raise ValueError(f"type A poset needs 1 <= k <= n, got k={k}, n={n}")
    elif family == "B":
        if k not in (1, 2):
            raise UnsupportedLevelError(
                f"type B flip poset is defined for k in {{1, 2}}, got k={k}")
    else:
        raise ValueError(f"unknown family {family!r}")
    max_nodes = env_budget("BRUHAT_MAX_NODES", DEFAULT_MAX_NODES)
    poset = BruhatPoset(family, n, k)
    coding = _coding(family, n, k)
    full = (1 << len(coding.ground)) - 1
    if all(mates | 1 << c == full for c, mates in enumerate(coding.partners)):
        _ordering_bfs(poset, coding, max_nodes)
    else:
        _heap_bfs(poset, coding, max_nodes)
    return poset


def _add_node(poset: BruhatPoset, max_nodes: int, canon: tuple, inv: int) -> int:
    """Append a new class to poset within the node budget; returns its id."""
    if len(poset.nodes) >= max_nodes:
        raise PosetOverflowError(f"poset exceeded {max_nodes} nodes (BRUHAT_MAX_NODES) "
                                 f"at rank {inv.bit_count()}")
    poset.nodes.append(PosetNode(canon, inv))
    return len(poset.nodes) - 1


def _heap_bfs(poset: BruhatPoset, coding: _Coding, max_nodes: int) -> None:
    """build_poset for any packet table.  A class is the set of linear
    extensions of its heap, so an edge finds its class by the flipped member's
    below masks, recomputed from the first slot the flip moves; the canonical
    form is computed once, when the class is new."""
    partners, labels, size = coding.partners, coding.labels, len(coding.ground)
    # a queued node carries a member of its class and its heap (class
    # invariant, so any member's); heaps maps each class's below masks to its
    # id.  The standard order is least in its class and inverts nothing
    seq = list(range(size))
    below = _down(partners, seq)
    heaps = {tuple(below): _add_node(poset, max_nodes, tuple(seq), 0)}
    canons = {tuple(seq)}
    queue = deque([(0, seq, below, _down(partners, seq[::-1]))])
    while queue:
        src, seq, below, above = queue.popleft()
        inv = poset.nodes[src].inv
        pos = _slots(seq)
        for i in _class_flips(labels, below, above, inv):
            member, first, last = _flip_span(seq, pos, below, labels[i][1])
            flipped = _down(partners, member, first, below)
            heap = tuple(flipped)
            dst = heaps.get(heap)
            if dst is None:
                canon = tuple(_canonical(flipped))
                if canon in canons:
                    raise RuntimeError(
                        f"a new heap at rank {inv.bit_count() + 1} has the "
                        f"canonical form of a known class")
                dst = heaps[heap] = _add_node(poset, max_nodes, canon, inv | 1 << i)
                canons.add(canon)
                queue.append((dst, member, flipped,
                              _down(partners, member[::-1], size - 1 - last, above)))
            poset.edges.append((src, dst, i))


def _ordering_bfs(poset: BruhatPoset, coding: _Coding, max_nodes: int) -> None:
    """build_poset when no two codes commute, so that each class is one
    ordering: its own key and canonical form.  A label outside inv is in
    packet order, so it flips exactly when each component fills the slots
    from its first code's to its last's; the flip reverses those slots.
    Nodes are visited in id order, the order _heap_bfs queues them in.

    Such a label has the first two codes of its first component in adjacent
    slots, in that order, so the candidates are found by looking up the
    size - 1 adjacent slot pairs (a, b), keyed a * size + b; the components'
    ends are then checked, and the hits flipped in label order."""
    size = len(coding.ground)
    ends = [[(codes[0], codes[-1], len(codes) - 1) for codes, _mask in comps]
            for _K, comps in coding.labels]
    heads: dict = {}
    for i, (_K, ((codes, _mask), *_rest)) in enumerate(coding.labels):
        heads.setdefault(codes[0] * size + codes[1], []).append(i)
    start = tuple(range(size))
    ids = {start: _add_node(poset, max_nodes, start, 0)}
    nodes, edges = poset.nodes, poset.edges
    src = 0
    while src < len(nodes):
        seq, inv = nodes[src].canon, nodes[src].inv
        pos = _slots(seq)
        hits = []
        for t in range(size - 1):
            hits += heads.get(seq[t] * size + seq[t + 1], ())
        hits.sort()
        for i in hits:
            if inv >> i & 1:
                continue
            comps = ends[i]
            for first, last, span in comps:
                if pos[last] - pos[first] != span:
                    break
            else:
                member = list(seq)
                for first, last, _span in comps:
                    lo, hi = pos[first], pos[last] + 1
                    member[lo:hi] = seq[lo:hi][::-1]
                member = tuple(member)
                dst = ids.get(member)
                if dst is None:
                    dst = ids[member] = _add_node(poset, max_nodes, member, inv | 1 << i)
                edges.append((src, dst, i))
        src += 1


@dataclass(frozen=True)
class ExtremaReport:
    unique_min: bool
    unique_max: bool
    graded: bool


def check_extrema(p: BruhatPoset) -> ExtremaReport:
    """Unique minimum, unique maximum, and gradedness of the flip poset: each
    edge sets exactly its label's bit, clear in its source, and every node
    but the top has an edge out."""
    nodes = p.nodes
    full = (1 << len(_coding(p.family, p.n, p.k).labels)) - 1
    has_out = {s for s, _d, _c in p.edges}
    steps = all(not nodes[s].inv >> c & 1 and nodes[d].inv == nodes[s].inv | 1 << c
                for s, d, c in p.edges)
    graded = steps and all(nd.inv == full or i in has_out for i, nd in enumerate(nodes))
    return ExtremaReport(sum(nd.inv == 0 for nd in nodes) == 1,
                         sum(nd.inv == full for nd in nodes) == 1, graded)


def maximal_chains(p: BruhatPoset) -> list[tuple]:
    """_paths(p) with each edge's label, a level-(k+1) element, as its token."""
    labels = _coding(p.family, p.n, p.k).labels
    return _paths(p, [labels[c][0] for _s, _d, c in p.edges])


@_gc_paused()
def _paths(p: BruhatPoset, tokens: list) -> list[tuple]:
    """The minimum-to-maximum paths of p, each the tuple of its edges' tokens
    (tokens[i] for p.edges[i]), in label order of the edges.

    They meet at the middle rank m = R // 2 of the top rank R.  From the top
    down, each node of rank >= m lists its tails, (t,) + tail over its
    successors in label order; below m, a depth-first walk (one token path, a
    stack of successor iterators) extends each path that reaches rank m by them.
    """
    rep = check_extrema(p)
    if not (rep.unique_min and rep.unique_max and rep.graded):
        raise ValueError("maximal chains need unique extrema and a graded poset")
    rank = [nd.rank for nd in p.nodes]
    top = rank.index(len(_coding(p.family, p.n, p.k).labels))
    succ: list[list] = [[] for _ in rank]
    for (s, d, _c), t in sorted(zip(p.edges, tokens), key=lambda e: e[0][2]):
        succ[s].append((d, t))
    mid = rank[top] // 2
    tails = {top: [()]}
    for v in sorted((v for v in range(len(rank)) if mid <= rank[v] < rank[top]),
                    key=rank.__getitem__, reverse=True):
        tails[v] = [(t,) + tail for d, t in succ[v] for tail in tails[d]]
    if rank[0] >= mid:      # top rank 0 or 1
        return tails[0]
    paths = []
    path: list = []
    stack = [iter(succ[0])]
    while stack:
        for dst, t in stack[-1]:
            if rank[dst] == mid:
                head = (*path, t)
                paths += [head + tail for tail in tails[dst]]
            else:
                path.append(t)
                stack.append(iter(succ[dst]))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return paths


def enumerate_admissible(family: str, n: int, k: int) -> list[TotalOrder]:
    """All admissible orderings of the level-k ground set (admissible_sequences)."""
    coding = _coding(family, n, k)
    return [TotalOrder(family, n, k, tuple([coding.ground[c] for c in seq]))
            for seq in admissible_sequences(range(len(coding.ground)),
                                            [comps for _K, comps in coding.labels])]


def _steps(packets, full: int) -> list[list]:
    """Per code of the mask full: (packet id, component mask, mask of the
    codes before it, after it) for each packet component holding it."""
    steps: list[list] = [[] for _ in range(full.bit_length())]
    for pid, comps in enumerate(packets):
        for codes, mask in comps:
            if mask & ~full:
                raise ValueError(f"packet {pid} holds codes outside ground")
            before = 0
            for c in codes:
                steps[c].append((pid, mask, before, mask & ~before & ~(1 << c)))
                before |= 1 << c
    return steps


def admissible_sequences(ground, packets) -> list[tuple]:
    """Orderings of the codes in ground that keep each packet in packet order
    or reversed.

    packets lists each packet's components as (chain of codes, mask) pairs,
    as _Coding.labels does, on codes of ground only.  Backtracking over
    packet-chain prefixes: in such an ordering the placed codes of every
    component form a prefix of the component in the packet's orientation,
    and the first code placed from a packet (an end of its component) fixes
    that orientation.  So a code is placed only when it comes next along
    every component holding it; this cuts exactly the branches that have no
    completion.  The state is the mask of placed codes and the orientation
    of each started packet.  Orderings come out in backtracking order over
    the listing of ground.
    """
    full = sum(1 << c for c in ground)
    steps = _steps(packets, full)
    forward: list = [None] * len(packets)   # per packet: True when in packet order
    out = []
    seq: list = []

    def extend(placed):
        if placed == full:
            out.append(tuple(seq))
            return
        for c in ground:
            if placed >> c & 1:
                continue
            fixed = []
            for pid, mask, before, after in steps[c]:
                fwd = forward[pid]
                if fwd is None:     # fixed by an end; a middle fails below
                    fwd = forward[pid] = not before
                    fixed.append(pid)
                if placed & mask != (before if fwd else after):
                    break
            else:
                seq.append(c)
                extend(placed | 1 << c)
                seq.pop()
            for pid in fixed:
                forward[pid] = None

    extend(0)
    del extend      # break the cycle extend -> its closure -> extend, which holds out
    return out


def admissible_orderings_filter(family: str, n: int, k: int) -> list[TotalOrder]:
    """Permutation-filter oracle for enumerate_admissible (tiny grounds only)."""
    return [rho for perm in itertools.permutations(ground_set(family, n, k))
            if is_admissible(rho := TotalOrder(family, n, k, perm))]


def count_chains(p: BruhatPoset) -> int:
    """The number of maximal chains of p: paths from node 0 to the top (every
    label inverted), summed over the rank-raising edges from the top down."""
    top = len(_coding(p.family, p.n, p.k).labels)
    paths = [int(nd.rank == top) for nd in p.nodes]
    for s, d, _c in sorted(p.edges, key=lambda e: -p.nodes[e[0]].rank):
        paths[s] += paths[d]
    return paths[0]


def chains_bijection_check(p: BruhatPoset) -> bool:
    """Maximal chains biject onto the admissible level-(k+1) orderings (the
    labels, in standard order), certified node by node: node 0 inverts
    nothing, each edge adds exactly its label to its source's inv, no node
    has two out-edges with one label, and each node's out-labels are the c
    outside inv such that inv holds exactly the codes before c, or exactly
    those after it, of each level-(k+2) packet holding c.  Those packets are
    single chains (two components occur only at level 2), so the placed codes
    fix their orientations and these legal steps spell exactly the admissible
    orderings.  By induction on the steps, a path from node 0 reads a legal
    sequence, its end's inv, and an admissible ordering walks one edge per
    label to a node inverting every label; paths part by distinct labels."""
    nodes, size = p.nodes, len(_coding(p.family, p.n, p.k).labels)
    upper = _coding(p.family, p.n, p.k + 1).labels if size else ()
    steps = _steps([comps for _K, comps in upper], (1 << size) - 1)
    out = [0] * len(nodes)      # node -> mask of its out-edge labels
    for s, d, c in p.edges:     # c outside inv(s) follows from the legal labels
        if out[s] >> c & 1 or nodes[d].inv != nodes[s].inv | 1 << c:
            return False
        out[s] |= 1 << c
    return not nodes[0].inv and all(
        m == sum(1 << c for c, holds in enumerate(steps) if not nd.inv >> c & 1
                 and all(nd.inv & mask in (before, after)
                         for _pid, mask, before, after in holds))
        for m, nd in zip(out, nodes))


def inv_injectivity_check(p: BruhatPoset) -> bool:
    """Distinct classes carry distinct inversion sets."""
    return len({nd.inv for nd in p.nodes}) == len(p.nodes)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def poset_to_json_obj(p: BruhatPoset) -> dict:
    coding = _coding(p.family, p.n, p.k)
    ground, labels = coding.ground, coding.labels
    return {"family": p.family, "n": p.n, "k": p.k,
            "nodes": [{"id": i, "canon": [format_element(ground[c]) for c in nd.canon],
                       "inv": sorted(format_element(K)
                                     for K in _mask_labels(labels, nd.inv)),
                       "rank": nd.rank} for i, nd in enumerate(p.nodes)],
            "edges": [{"src": s, "dst": d, "label": format_element(labels[c][0])}
                      for s, d, c in p.edges]}


def poset_to_json(p: BruhatPoset) -> str:
    return json.dumps(poset_to_json_obj(p), indent=2)


def poset_from_json_obj(obj: dict) -> dict:
    """Parse an exported poset back into comparable node and edge sets."""
    nodes = {nd["id"]: (tuple(map(parse_element, nd["canon"])),
                        frozenset(map(parse_element, nd["inv"])), nd["rank"])
             for nd in obj["nodes"]}
    return {"family": obj["family"], "n": obj["n"], "k": obj["k"],
            "nodes": frozenset(nodes.values()),
            "edges": frozenset((nodes[e["src"]][0], nodes[e["dst"]][0],
                                parse_element(e["label"])) for e in obj["edges"])}


def poset_comparable(p: BruhatPoset) -> dict:
    """Same canonical shape as poset_from_json_obj, straight from a poset."""
    coding = _coding(p.family, p.n, p.k)
    canon = [tuple([coding.ground[c] for c in nd.canon]) for nd in p.nodes]
    return {"family": p.family, "n": p.n, "k": p.k,
            "nodes": frozenset((seq, frozenset(_mask_labels(coding.labels, nd.inv)),
                                nd.rank) for seq, nd in zip(canon, p.nodes)),
            "edges": frozenset((canon[s], canon[d], coding.labels[c][0])
                               for s, d, c in p.edges)}


def poset_to_dot(p: BruhatPoset) -> str:
    """DOT text: nodes labeled by rank and canonical sequence, edges by label."""
    coding = _coding(p.family, p.n, p.k)
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for i, nd in enumerate(p.nodes):
        seq = " ".join(format_element(coding.ground[c]) for c in nd.canon)
        lines.append(f'  n{i} [label="rank {nd.rank}: {seq}"];')
    for s, d, c in p.edges:
        lines.append(f'  n{s} -> n{d} [label="{format_element(coding.labels[c][0])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
