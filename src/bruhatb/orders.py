"""Admissible orderings, packet flips, commutation classes, and flip posets.

A total ordering of a ground set is admissible when its restriction to every
packet agrees with the packet order or its reverse.  Packet flips reverse the
comparable components of one packet in place; quotienting by swaps of adjacent
commuting elements and closing under flips yields a graded poset with the
inversion set as rank function.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .core import (
    Packet,
    UnsupportedLevelError,
    _level_elements,
    enumerate_A,
    enumerate_B,
    format_element,
    packet_B,
    parse_element,
    standard_key,
)


class InadmissibleOrderError(ValueError):
    """Raised when an operation requires an admissible ordering."""


class FlipError(ValueError):
    """Raised when flipping an element outside the candidate set."""


class PosetOverflowError(RuntimeError):
    """Raised when a poset search exceeds the node budget."""


DEFAULT_MAX_NODES = 10 ** 6


def element_key(e):
    """Deterministic sort key for ground elements of either family."""
    if isinstance(e, tuple):
        return e
    return standard_key(e)


def ground_set(family: str, n: int, k: int) -> list:
    if family == "A":
        return enumerate_A(n, k)
    if family == "B":
        return enumerate_B(n, k)
    raise ValueError(f"unknown family {family!r}")


def _upper_elements(family: str, n: int, k: int) -> list:
    """Level-(k+1) elements, the flip labels over level k."""
    if family == "A":
        if k + 1 > n:
            return []
        return enumerate_A(n, k + 1)
    if k + 1 <= 3:
        return enumerate_B(n, k + 1)
    if k + 1 == 4:
        return sorted(_level_elements(n, 4), key=lambda e: (e.kind, e.entries))
    raise UnsupportedLevelError(f"no packets above level {k}")


@lru_cache(maxsize=None)
def _standard_order(family: str, n: int, k: int) -> tuple:
    """The ground set in standard (element_key) order, enumerated once."""
    return tuple(ground_set(family, n, k))


@lru_cache(maxsize=None)
def _packet_table(family: str, n: int, k: int) -> tuple[tuple[object, Packet], ...]:
    """(K, packet of K) for every level-(k+1) element K, in label order."""
    out = []
    for K in _upper_elements(family, n, k):
        if family == "A":
            chain = tuple(sorted(itertools.combinations(K, k)))
            out.append((K, Packet(frozenset(chain), (chain,))))
        else:
            out.append((K, packet_B(K)))
    return tuple(out)


@dataclass(frozen=True)
class TotalOrder:
    """A total ordering of a full ground set, stored as a sequence."""

    family: str
    n: int
    k: int
    seq: tuple

    def __post_init__(self):
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


def _packet_orientations(rho: TotalOrder) -> dict:
    """Map each level-(k+1) element to True when its packet is fully reversed.

    Raises InadmissibleOrderError when some packet is neither in packet order
    nor fully reversed (components must agree on the orientation).
    """
    pos = rho.positions
    out = {}
    for K, packet in _packet_table(rho.family, rho.n, rho.k):
        orientation = None
        for chain in packet.components:
            for a, b in zip(chain, chain[1:]):
                forward = pos[a] < pos[b]
                if orientation is None:
                    orientation = forward
                elif orientation != forward:
                    raise InadmissibleOrderError(
                        f"packet of {format_element(K)} is inconsistently ordered")
        out[K] = not orientation
    return out


def is_admissible(rho: TotalOrder) -> bool:
    """Whether every packet appears in packet order or fully reversed."""
    try:
        _packet_orientations(rho)
    except InadmissibleOrderError:
        return False
    return True


def inversion_set(rho: TotalOrder) -> frozenset:
    """The level-(k+1) elements whose packet appears fully reversed."""
    return frozenset(K for K, rev in _packet_orientations(rho).items() if rev)


def flip_candidates(rho: TotalOrder) -> frozenset:
    """Elements whose packet components all occupy consecutive positions."""
    pos = rho.positions
    out = []
    for K, packet in _packet_table(rho.family, rho.n, rho.k):
        ok = True
        for chain in packet.components:
            ps = [pos[e] for e in chain]
            if max(ps) - min(ps) != len(ps) - 1:
                ok = False
                break
        if ok:
            out.append(K)
    return frozenset(out)


def packet_flip(rho: TotalOrder, K) -> TotalOrder:
    """Reverse each comparable component of K's packet in place."""
    pos = rho.positions
    packet = _packet_of(rho.family, rho.n, rho.k, K)
    seq = list(rho.seq)
    for chain in packet.components:
        ps = sorted(pos[e] for e in chain)
        if ps[-1] - ps[0] != len(ps) - 1:
            raise FlipError(f"{format_element(K)} is not flippable here")
        seq[ps[0]:ps[-1] + 1] = reversed(seq[ps[0]:ps[-1] + 1])
    return TotalOrder(rho.family, rho.n, rho.k, tuple(seq))


@lru_cache(maxsize=None)
def _packets(family: str, n: int, k: int) -> dict:
    """Level-(k+1) element -> its packet (read-only)."""
    return dict(_packet_table(family, n, k))


def _packet_of(family: str, n: int, k: int, K) -> Packet:
    packet = _packets(family, n, k).get(K)
    if packet is None:
        raise ValueError(f"{format_element(K)} is not a level-{k + 1} element")
    return packet


@lru_cache(maxsize=None)
def _partners(family: str, n: int, k: int) -> dict:
    """Each element's non-commuting partners (packet mates); read-only sets."""
    out: dict = {e: set() for e in ground_set(family, n, k)}
    for _K, packet in _packet_table(family, n, k):
        for chain in packet.components:
            for a, b in itertools.combinations(chain, 2):
                out[a].add(b)
                out[b].add(a)
    return out


def commutes(a, b, family: str, n: int, k: int) -> bool:
    """Whether a and b are incomparable in every packet containing both."""
    if a == b:
        raise ValueError("commutation needs two distinct elements")
    return b not in _partners(family, n, k)[a]


# ---------------------------------------------------------------------------
# commutation classes and canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderClass:
    """A commutation class, held by its canonical representative."""

    canon: TotalOrder


def dependence_order(rho: TotalOrder) -> list[int]:
    """The order whose linear extensions are rho's commutation class.

    below[j] is a bitmask of the positions of rho whose elements precede
    rho.seq[j] in every class member: the transitive closure of the
    non-commuting pairs, oriented as in rho (the class's heap of pieces).
    """
    partners = _partners(rho.family, rho.n, rho.k)
    seq = rho.seq
    below: list[int] = []
    for j, b in enumerate(seq):
        near = partners[b]
        mask = 0
        for i in range(j):
            if seq[i] in near:
                mask |= below[i] | 1 << i
        below.append(mask)
    return below


def canonical_form(rho: TotalOrder) -> OrderClass:
    """Lexicographically least member of the commutation class of rho.

    Greedy least-available linearization of the dependence order, with
    availability resolved by the standard order on ground elements.
    """
    seq = rho.seq
    below = dependence_order(rho)
    pos = {e: i for i, e in enumerate(seq)}
    left = [pos[e] for e in _standard_order(rho.family, rho.n, rho.k)]
    placed = 0
    out = []
    while left:
        for t, j in enumerate(left):
            if not below[j] & ~placed:
                break
        del left[t]
        placed |= 1 << j
        out.append(seq[j])
    return OrderClass(TotalOrder(rho.family, rho.n, rho.k, tuple(out)))


def class_members(rho: TotalOrder) -> list[TotalOrder]:
    """Every member of the commutation class by swap closure (oracles only)."""
    partners = _partners(rho.family, rho.n, rho.k)
    seen = {rho.seq}
    queue = deque([rho.seq])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) - 1):
            if cur[i + 1] not in partners[cur[i]]:
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return [TotalOrder(rho.family, rho.n, rho.k, s)
            for s in sorted(seen, key=lambda s: tuple(element_key(e) for e in s))]


def class_flip_candidates(r: OrderClass) -> frozenset:
    """Labels flippable in some member of the commutation class.

    K qualifies when no element lies strictly between two elements of one
    component of K's packet in the dependence order (_flip_in_class builds
    the member).  Several components occur only at type B level 1, where the
    class is one ordering, so the components are tested one at a time.
    """
    rho = r.canon
    return frozenset(_class_flips(rho, dependence_order(rho)))


def _class_flips(rho: TotalOrder, below: list[int]) -> list:
    """class_flip_candidates of rho's class given rho's dependence order.

    Listed in label order, which is the element_key order.
    """
    index = {e: i for i, e in enumerate(rho.seq)}

    def separated(chain) -> bool:
        ps = [index[e] for e in chain]
        lo, hi = min(ps), max(ps)
        # below hi, after lo, outside the chain; some of it above lo?
        rest = below[hi] & -(2 << lo)
        for p in ps:
            rest &= ~(1 << p)
        while rest:
            x = rest & -rest
            if below[x.bit_length() - 1] >> lo & 1:
                return True
            rest ^= x
        return False

    return [K for K, packet in _packet_table(rho.family, rho.n, rho.k)
            if not any(separated(c) for c in packet.components)]


def _flip_in_class(rho: TotalOrder, below: list[int], packet: Packet) -> TotalOrder:
    """Flip a packet in the member of rho's class that holds it consecutive.

    Per component: what lies below it in the dependence order, then the
    component reversed, then the rest, each part in the current order.
    """
    index = {e: i for i, e in enumerate(rho.seq)}
    order = list(range(len(rho.seq)))
    for chain in packet.components:
        comp = {index[e] for e in chain}
        low = below[max(comp)]
        order = ([i for i in order if low >> i & 1 and i not in comp]
                 + [i for i in reversed(order) if i in comp]
                 + [i for i in order if not low >> i & 1 and i not in comp])
    return TotalOrder(rho.family, rho.n, rho.k, tuple(rho.seq[i] for i in order))


# ---------------------------------------------------------------------------
# the flip poset
# ---------------------------------------------------------------------------

@dataclass
class PosetNode:
    canon: TotalOrder
    inv: frozenset
    rank: int


@dataclass
class BruhatPoset:
    """Flip poset on commutation classes, graded by inversion-set size."""

    family: str
    n: int
    k: int
    nodes: dict = field(default_factory=dict)     # canon seq -> PosetNode
    edges: list = field(default_factory=list)     # (src seq, dst seq, label)
    min_key: tuple = ()

    @property
    def full_inv(self) -> frozenset:
        return frozenset(K for K, _ in _packet_table(self.family, self.n, self.k))


def build_poset(family: str, n: int, k: int,
                max_nodes: int | None = None) -> BruhatPoset:
    """BFS closure of packet flips starting from the minimal class.

    Nodes are keyed by canonical form; every edge applies one flip at a label
    outside the inversion set, raising rank by one.
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
    if max_nodes is None:
        max_nodes = int(os.environ.get("BRUHAT_MAX_NODES", DEFAULT_MAX_NODES))

    poset = BruhatPoset(family, n, k)
    packets = _packets(family, n, k)
    start = canonical_form(rho_min(family, n, k)).canon
    poset.min_key = start.seq
    poset.nodes[start.seq] = PosetNode(start, inversion_set(start), 0)
    queue = deque([start.seq])
    while queue:
        key = queue.popleft()
        node = poset.nodes[key]
        below = dependence_order(node.canon)
        for K in _class_flips(node.canon, below):
            if K in node.inv:
                continue
            flipped = canonical_form(
                _flip_in_class(node.canon, below, packets[K])).canon
            if flipped.seq not in poset.nodes:
                if len(poset.nodes) >= max_nodes:
                    raise PosetOverflowError(
                        f"poset exceeded {max_nodes} nodes (BRUHAT_MAX_NODES)")
                poset.nodes[flipped.seq] = PosetNode(
                    flipped, node.inv | {K}, node.rank + 1)
                queue.append(flipped.seq)
            poset.edges.append((key, flipped.seq, K))
    return poset


@dataclass(frozen=True)
class ExtremaReport:
    unique_min: bool
    unique_max: bool
    graded: bool


def check_extrema(p: BruhatPoset) -> ExtremaReport:
    """Unique minimum, unique maximum, and gradedness of the flip poset."""
    full = p.full_inv
    mins = [k for k, nd in p.nodes.items() if not nd.inv]
    maxs = [k for k, nd in p.nodes.items() if nd.inv == full]
    has_out = {k: False for k in p.nodes}
    for s, _d, _K in p.edges:
        has_out[s] = True
    graded = all(
        nd.rank == len(nd.inv) and (nd.inv == full or has_out[key])
        for key, nd in p.nodes.items())
    return ExtremaReport(len(mins) == 1, len(maxs) == 1, graded)


def maximal_chains(p: BruhatPoset) -> list[tuple]:
    """Edge-label sequences of all minimum-to-maximum paths.

    Depth first, successors in label order: one path of labels and an
    explicit stack of successor iterators; a chain is copied out only when
    the path reaches the top node.
    """
    rep = check_extrema(p)
    if not (rep.unique_min and rep.unique_max):
        raise ValueError("maximal chains need unique extrema")
    full = p.full_inv
    ids = {key: i for i, key in enumerate(p.nodes)}
    top = next(ids[key] for key, nd in p.nodes.items() if nd.inv == full)
    succ: list[list] = [[] for _ in ids]
    for s, d, K in sorted(p.edges, key=lambda e: element_key(e[2])):
        succ[ids[s]].append((ids[d], K))
    start = ids[p.min_key]
    if start == top:
        return [()]
    chains = []
    path: list = []
    stack = [iter(succ[start])]
    while stack:
        for dst, K in stack[-1]:
            if dst == top:
                chains.append((*path, K))
            else:
                path.append(K)
                stack.append(iter(succ[dst]))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return chains


def enumerate_admissible(family: str, n: int, k: int) -> list[TotalOrder]:
    """All admissible orderings of the level-k ground set (admissible_sequences)."""
    packets = [packet.components for _K, packet in _packet_table(family, n, k)]
    return [TotalOrder(family, n, k, seq)
            for seq in admissible_sequences(ground_set(family, n, k), packets)]


def admissible_sequences(ground, packets) -> list[tuple]:
    """Orderings of ground that keep each packet in packet order or reversed.

    packets lists each packet's component chains.  Backtracking over
    packet-chain prefixes: in such an ordering the placed elements of every
    component form a prefix of the component in the packet's orientation,
    and the first element placed from a packet (an end of its component)
    fixes that orientation.  So an element is placed only when it comes next
    along every component holding it; this cuts exactly the branches that
    have no completion.  Orderings come out in backtracking order over the
    listing of ground.
    """
    # per element: (packet id, component id, index from the front, from the back)
    steps: dict = {e: [] for e in ground}
    components = 0
    for pid, chains in enumerate(packets):
        for chain in chains:
            for i, e in enumerate(chain):
                steps[e].append((pid, components, i, len(chain) - 1 - i))
            components += 1
    done = [0] * components      # placed elements per component
    orient: dict = {}            # packet id -> True when in packet order
    out = []
    placed: list = []
    placed_set: set = set()

    def extend():
        if len(placed) == len(ground):
            out.append(tuple(placed))
            return
        for e in ground:
            if e in placed_set:
                continue
            fixed = []
            ok = True
            for pid, c, front, back in steps[e]:
                forward = orient.get(pid)
                if forward is None:     # fixed by an end; a middle fails below
                    forward = orient[pid] = not front
                    fixed.append(pid)
                if done[c] != (front if forward else back):
                    ok = False
                    break
            if ok:
                placed.append(e)
                placed_set.add(e)
                for _pid, c, _front, _back in steps[e]:
                    done[c] += 1
                extend()
                for _pid, c, _front, _back in steps[e]:
                    done[c] -= 1
                placed.pop()
                placed_set.remove(e)
            for pid in fixed:
                del orient[pid]

    extend()
    return out


def admissible_orderings_filter(family: str, n: int, k: int) -> list[TotalOrder]:
    """Permutation-filter oracle for enumerate_admissible (tiny grounds only)."""
    ground = ground_set(family, n, k)
    out = []
    for perm in itertools.permutations(ground):
        cand = TotalOrder(family, n, k, perm)
        if is_admissible(cand):
            out.append(cand)
    return out


def chains_bijection_check(p: BruhatPoset) -> bool:
    """Chain labels are admissible level-(k+1) orders, one chain per order."""
    chains = maximal_chains(p)
    upper = _upper_elements(p.family, p.n, p.k)
    orders = set()
    for labels in chains:
        if sorted(labels, key=element_key) != sorted(upper, key=element_key):
            return False
        cand = TotalOrder(p.family, p.n, p.k + 1, labels)
        if not is_admissible(cand):
            return False
        orders.add(labels)
    if len(orders) != len(chains):
        return False
    admissible = {t.seq for t in enumerate_admissible(p.family, p.n, p.k + 1)}
    return orders == admissible


def inv_injectivity_check(p: BruhatPoset) -> bool:
    """Distinct classes carry distinct inversion sets."""
    return len({nd.inv for nd in p.nodes.values()}) == len(p.nodes)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _node_ids(p: BruhatPoset) -> dict:
    return {key: i for i, key in enumerate(p.nodes)}


def poset_to_json_obj(p: BruhatPoset) -> dict:
    ids = _node_ids(p)
    return {
        "family": p.family,
        "n": p.n,
        "k": p.k,
        "nodes": [
            {
                "id": ids[key],
                "canon": [format_element(e) for e in nd.canon.seq],
                "inv": sorted((format_element(K) for K in nd.inv)),
                "rank": nd.rank,
            }
            for key, nd in p.nodes.items()
        ],
        "edges": [
            {"src": ids[s], "dst": ids[d], "label": format_element(K)}
            for s, d, K in p.edges
        ],
    }


def poset_to_json(p: BruhatPoset) -> str:
    return json.dumps(poset_to_json_obj(p), indent=2)


def poset_from_json_obj(obj: dict) -> dict:
    """Parse an exported poset back into comparable node and edge sets."""
    nodes = {}
    for nd in obj["nodes"]:
        canon = tuple(parse_element(t) for t in nd["canon"])
        inv = frozenset(parse_element(t) for t in nd["inv"])
        nodes[nd["id"]] = (canon, inv, nd["rank"])
    return {
        "family": obj["family"],
        "n": obj["n"],
        "k": obj["k"],
        "nodes": frozenset(nodes.values()),
        "edges": frozenset((nodes[e["src"]][0], nodes[e["dst"]][0],
                            parse_element(e["label"])) for e in obj["edges"]),
    }


def poset_comparable(p: BruhatPoset) -> dict:
    """Same canonical shape as poset_from_json_obj, straight from a poset."""
    return {
        "family": p.family,
        "n": p.n,
        "k": p.k,
        "nodes": frozenset((nd.canon.seq, nd.inv, nd.rank) for nd in p.nodes.values()),
        "edges": frozenset((s, d, K) for s, d, K in p.edges),
    }


def poset_to_dot(p: BruhatPoset) -> str:
    """DOT text: nodes labeled by rank and canonical sequence, edges by label."""
    ids = _node_ids(p)
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for key, nd in p.nodes.items():
        seq = " ".join(format_element(e) for e in nd.canon.seq)
        lines.append(f'  n{ids[key]} [label="rank {nd.rank}: {seq}"];')
    for s, d, K in p.edges:
        lines.append(f'  n{ids[s]} -> n{ids[d]} [label="{format_element(K)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
