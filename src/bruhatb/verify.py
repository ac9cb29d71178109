"""Crossing, blocking, and the case machinery behind the level-2 theorems.

Desk-scale verification on the codes of the one packet table, orders._coding.
A linear scan decides whether two elements can exchange their relative order
inside a commutation class; blocking and the obstruction patterns are decided
on the class's dependence order (its heap of pieces).  Each obstruction case
enumerates the admissible orderings of its ambient double packet (every
packet of the ambient level-4 element in packet order or reversed) with
orders.admissible_sequences, the backtracker behind enumerate_admissible.
Of the two level-3 appendix checks, blocked-flip classification runs once per
node of build_poset("B", n, 2) and counts class instances; it relies on every
class being a node, which the tests certify independently up to B(4,2).
Interval escapes run on the admissible sequences of codes.  Oracles that
enumerate the class by swaps (crosses_oracle, blocks_oracle,
class_flip_candidates_oracle) live alongside: blocking_agreement certifies
the one class-flip test, orders.class_flip_candidates, which build_poset runs.
An element outside rho's ground set, or a K outside its level-3 labels,
raises a ValueError naming it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from .core import (
    BElem,
    enumerate_B,
    format_element,
    normalize_orbit,
    packet_B,
    star,
)
from .orders import (
    TotalOrder,
    _class_flips,
    _coding,
    _down,
    _mask_labels,
    _placed,
    _slots,
    admissible_sequences,
    canonical_form,
    class_flip_candidates,
    class_members,
    dependence_order,
    enumerate_admissible,
    flip_candidates,
    inversion_set,
)


class ClassifyError(RuntimeError):
    """Raised when no obstruction pattern matches a blocked flip."""


# ---------------------------------------------------------------------------
# intervals, crossing, blocking
# ---------------------------------------------------------------------------

def minimal_chain(rho: TotalOrder, S) -> tuple:
    """The contiguous interval of rho spanning the elements of S."""
    coding, _seq, pos = _placed(rho)
    ps = sorted(pos[coding.code_of(e)] for e in S)
    if not ps:
        raise ValueError("minimal chain of an empty set")
    return rho.seq[ps[0]:ps[-1] + 1]


def crosses_in_seq(seq, a, b, partners) -> bool:
    """Single-scan crossing test on an arbitrary sequence of codes.

    Walk from a towards b, growing a mask of the codes pinned to a: each code
    between them joins when it is a packet mate (partners) of a pinned code.
    a and b can cross exactly when b has no packet mate in the pinned mask.
    """
    ia, ib = seq.index(a), seq.index(b)
    pinned = 1 << a
    for q in seq[ia + 1:ib] if ia < ib else seq[ib + 1:ia][::-1]:
        if partners[q] & pinned:
            pinned |= 1 << q
    return not partners[b] & pinned


def crosses(rho: TotalOrder, a, b) -> bool:
    """Whether some member of rho's commutation class reverses a and b."""
    if a == b:
        raise ValueError("crossing needs two distinct elements")
    coding = _coding(rho.family, rho.n, rho.k)
    return crosses_in_seq([coding.code[e] for e in rho.seq], coding.code_of(a),
                          coding.code_of(b), coding.partners)


def crosses_oracle(rho: TotalOrder, a, b) -> bool:
    """Class-enumeration ground truth for crosses."""
    _outside(rho, a, (b,), "crossing needs two distinct elements")
    before = rho.positions[a] < rho.positions[b]
    for member in class_members(rho):
        if (member.positions[a] < member.positions[b]) != before:
            return True
    return False


def class_flip_candidates_oracle(rho: TotalOrder) -> frozenset:
    """Class-enumeration ground truth for class_flip_candidates.

    The union of flip_candidates over every member of rho's class.
    """
    return frozenset().union(*map(flip_candidates, class_members(rho)))


def blocks(rho: TotalOrder, x, S) -> bool:
    """Whether x sits inside the interval around S in every class member.

    Exactly when s1 < x < s2 in the dependence order for some s1, s2 in S:
    otherwise nothing of S lies below x (or above it), and listing the
    down-set of x first (or its up-set last), the rest in rho's order, gives
    a class member with x outside the interval.
    """
    i, S = _outside(rho, x, S, "a blocking element must lie outside S")
    return _blocks(dependence_order(rho), i, S)


def _outside(rho: TotalOrder, x, S, message: str) -> tuple[int, set]:
    """The codes of x and of S's elements; message when x lies in S."""
    code_of = _coding(rho.family, rho.n, rho.k).code_of
    i, S = code_of(x), {code_of(s) for s in S}
    if i in S:
        raise ValueError(message)
    return i, S


def _blocks(below: list[int], i: int, S) -> bool:
    """blocks on the codes i and S, given rho's dependence order."""
    return (any(below[i] >> s & 1 for s in S)
            and any(below[s] >> i & 1 for s in S))


def blocks_oracle(rho: TotalOrder, x, S) -> bool:
    """Class-enumeration ground truth for blocks."""
    S = set(S)
    _outside(rho, x, S, "a blocking element must lie outside S")
    for member in class_members(rho):
        ps = [member.positions[e] for e in S]
        if not ps or not min(ps) <= member.positions[x] <= max(ps):
            return False
    return True


def interval_escape_witness(rho: TotalOrder, S, x) -> TotalOrder:
    """A class member whose interval around S shrinks to exclude x.

    rho itself when x already lies outside the interval, as it always does
    when S is empty.  Otherwise, as in blocks: x and its down-set first when
    nothing of S lies below x, else x and its up-set last, everything else
    in rho's order.  Requires that x does not block S.
    """
    i, S = _outside(rho, x, S, "x must lie outside S")
    coding, seq, pos = _placed(rho)
    below = _down(coding.partners, seq)
    if _blocks(below, i, S):
        raise ValueError("x blocks S; no escape exists")
    w = _escape(seq, pos, below, S, i)
    return rho if w is seq else TotalOrder(rho.family, rho.n, rho.k,
                                           tuple([coding.ground[c] for c in w]))


def _escape(seq: list[int], pos: list[int], below: list[int], S, i: int) -> list[int]:
    """interval_escape_witness past its checks, on codes: seq itself when i
    lies outside the slots spanned by S, else a stable sort of seq."""
    ps = [pos[s] for s in S]
    if not ps or not min(ps) < pos[i] < max(ps):
        return seq
    if any(below[i] >> s & 1 for s in S):       # x and its up-set go last
        last = lambda c: c == i or below[c] >> i & 1
    else:                                       # x and its down-set go first
        down = below[i] | 1 << i
        last = lambda c: not down >> c & 1
    return sorted(seq, key=last)


# ---------------------------------------------------------------------------
# obstruction cases for blocked level-3 flips
# ---------------------------------------------------------------------------

CASE_IDS = ("orbit1", "orbit2", "orbit3", "star1", "star2", "star3", "star4")


@dataclass(frozen=True)
class CaseSpec:
    """One obstruction pattern instantiated with concrete indices.

    `seq` is the asserted chain of level-2 elements: the packet of K in
    packet order with the extra x-element inserted where the pattern pins it.
    Packet members whose position relative to the x-element is not pinned are
    omitted.
    """

    case_id: str
    n: int
    K: BElem
    x: int
    seq: tuple


def _case_triple(case_id: str, K: BElem, x: int):
    """The three-element chain asserted by the pattern, or None if invalid.

    Orbit patterns sandwich an extra element between two members of K's
    packet chain; the extra element shares the letter common to those two
    members.  The shared letter is read off the earlier member's preferred
    representative, which fixes the sign convention (flipping it only
    renames x to -x).
    """
    if case_id.startswith("orbit"):
        if K.kind != "orbit" or K.level != 3:
            raise ValueError("orbit cases need a level-3 orbit element")
        chain = packet_B(K).components[0]
        pick = {"orbit1": (0, 1), "orbit2": (1, 2), "orbit3": (0, 2)}[case_id]
        lo, hi = chain[pick[0]], chain[pick[1]]
        shared_abs = {abs(v) for v in lo.entries} & {abs(v) for v in hi.entries}
        (u,) = (v for v in lo.entries if abs(v) in shared_abs)
        if abs(x) == abs(u):
            return None
        mid = normalize_orbit((u, x))
        return (lo, mid, hi) if mid not in chain else None
    if case_id.startswith("star"):
        if K.kind != "star" or K.level != 3:
            raise ValueError("star cases need a level-3 star element")
        a, b = K.entries
        if abs(x) in (a, b):
            return None
        i, j = -a, -b
        E_ij = normalize_orbit((i, j))
        E_imj = normalize_orbit((i, -j))
        S_i, S_j = star((a,)), star((b,))
        if case_id == "star1":
            return (E_ij, normalize_orbit((i, x)), S_i)
        if case_id == "star2":
            return (S_i, normalize_orbit((i, x)), E_imj)
        if case_id == "star3":
            return (E_imj, normalize_orbit((j, x)), S_j)
        if case_id == "star4":
            return (E_ij, normalize_orbit((j, x)), E_imj)
    raise ValueError(f"unknown case id {case_id!r}")


def make_case(case_id: str, K: BElem, x: int, n: int | None = None) -> CaseSpec:
    """Instantiate an obstruction pattern as a checkable case."""
    triple = _case_triple(case_id, K, x)
    if triple is None:
        raise ValueError(f"{case_id} cannot be instantiated with K={K}, x={x}")
    rank = max(max(abs(v) for v in K.entries), abs(x))
    if n is None:
        n = rank
    elif rank > n:
        raise ValueError(f"K={K}, x={x} need rank {rank}, beyond rank n={n}")
    chain = packet_B(K).components[0]
    first, mid, last = triple
    seq: list = []
    for e in chain:
        seq.append(e)
        if e == first:
            seq.append(mid)
    # drop packet members that sit strictly between the pinned endpoints
    # in packet order but whose position relative to the middle element is
    # not asserted by the pattern
    lo, hi = chain.index(first), chain.index(last)
    pinned = [e for e in seq if e == mid or e not in chain[lo + 1:hi]]
    return CaseSpec(case_id, n, K, x, tuple(pinned))


def standard_cases(n: int = 3) -> list[CaseSpec]:
    """The seven patterns at the smallest rank admitting distinct indices."""
    orbit_K, star_K = normalize_orbit((-3, -2, -1)), star((2, 1))
    return [make_case(c, orbit_K if c.startswith("orbit") else star_K, x, n)
            for c, x in zip(CASE_IDS, (2, 2, 1, 3, 3, 3, 3))]


def falsified_case(n: int = 3) -> CaseSpec:
    """Negative control: a case sequence ordered against its own packet."""
    base = standard_cases(n)[3]
    return replace(base, seq=base.seq[-1:] + base.seq[1:-1] + base.seq[:1])


@dataclass
class CaseReport:
    case: CaseSpec
    ok: bool
    orientations: int = 0
    acyclic: int = 0
    extensions: int = 0
    failure: tuple | None = None

    def to_json_obj(self) -> dict:
        return {
            "check": "obstruction-case",
            "params": {
                "case": self.case.case_id,
                "K": format_element(self.case.K),
                "x": self.case.x,
                "n": self.case.n,
            },
            "result": self.ok,
            "orientations": self.orientations,
            "acyclic": self.acyclic,
            "extensions": self.extensions,
            **({"counterexample": [format_element(e) for e in self.failure]}
               if self.failure else {}),
        }


def case_report(case: CaseSpec) -> CaseReport:
    """Witness search certifying one obstruction pattern, on level-2 codes.

    The ambient is the one label of _coding("B", n, 3) whose member packets
    cover the case.  Its chain's codes are label indices of _coding("B", n,
    2), whose packets are the member packets; the double packet is the union
    of their masks.  Two elements of the case sequence that share a member
    packet are a pinned pair.  List the admissible orderings of the double
    packet (each member packet in packet order or reversed) that keep every
    pinned pair in the case's order, and demand that each exhibit a packet in
    standard order that either starts strictly above the blocked packet
    without crossing it at the bottom, or starts level with it and ends
    strictly inside without crossing at the top; a case that lists no
    ordering fails, as it certifies nothing.  The packets holding no
    pinned pair are open: `orientations` counts their orientations,
    `acyclic` those that some listed ordering realises, and `extensions` the
    listed orderings.
    """
    coding = _coding("B", case.n, 2)
    seq = [coding.code_of(e) for e in case.seq]
    want = sum(1 << c for c in seq)
    hits = []
    for R, ((chain, _mask),) in _coding("B", case.n, 3).labels:
        members = {i: coding.labels[i][1][0] for i in chain}   # (codes, mask)
        double = 0
        for _codes, mask in members.values():
            double |= mask
        if not want & ~double:
            hits.append((R, members, double))
    if len(hits) != 1:
        raise ValueError("case does not single out one ambient element: "
                         f"{[format_element(R) for R, *_ in hits]}")
    _R, members, double = hits[0]

    pinned = []
    closed = set()
    for q1, q2 in itertools.combinations(seq, 2):
        pair = 1 << q1 | 1 << q2
        hosts = [i for i, (_codes, mask) in members.items() if mask & pair == pair]
        if not hosts:
            continue
        if len(hosts) > 1:
            raise RuntimeError("a pair lies in two distinct packets")
        pinned.append((q1, q2))
        closed.add(hosts[0])

    open_chains = [codes for i, (codes, _mask) in members.items() if i not in closed]
    K_chain = members[coding.label_code[case.K]][0]
    report = CaseReport(case, True, orientations=2 ** len(open_chains))
    realised = set()
    ground = [c for c in range(len(coding.ground)) if double >> c & 1]
    for ext in admissible_sequences(ground, [(m,) for m in members.values()]):
        pos = {c: i for i, c in enumerate(ext)}
        if any(pos[q1] > pos[q2] for q1, q2 in pinned):
            continue
        report.extensions += 1
        realised.add(tuple(pos[c[0]] < pos[c[1]] for c in open_chains))
        if not _extension_has_witness(ext, pos, members.values(), K_chain,
                                      coding.partners):
            report.ok = False
            report.failure = tuple(coding.ground[c] for c in ext)
            break
    report.ok = report.ok and report.extensions > 0
    report.acyclic = len(realised)
    return report


def _extension_has_witness(ext, pos, packets, K_chain, partners) -> bool:
    """case_report's witness test on an ordering ext of codes, pos[c] the
    slot of c, over the member packets' (chain, mask) pairs."""
    crossed = lambda u, v: crosses_in_seq(ext, u, v, partners)
    k_ps = [pos[c] for c in K_chain]
    minK, maxK = ext[min(k_ps)], ext[max(k_ps)]
    for chain, _mask in packets:
        ps = [pos[c] for c in chain]
        if ps != sorted(ps):
            continue  # not in standard order here
        minP, maxP = chain[0], chain[-1]
        if pos[minP] > pos[minK] and not crossed(minK, minP):
            return True
        if minP == minK and pos[maxP] < pos[maxK] and not crossed(maxP, maxK):
            return True
    return False


def classify_blocked_flip(rho: TotalOrder, K):
    """Match a blocked, uninverted level-3 element to one of the patterns.

    Returns (case_id, x) such that the pattern's three-element chain holds in
    every member of rho's class, i.e. is a chain of the dependence order.
    """
    if rho.family != "B" or rho.k != 2:
        raise ValueError("classification applies to type B level-2 orderings")
    if K not in _coding("B", rho.n, 2).label_code:
        raise ValueError(f"{format_element(K)} is not a level-3 element")
    if K in class_flip_candidates(canonical_form(rho)) or K in inversion_set(rho):
        raise ValueError("flip at K is available or already inverted")
    if (match := _match_pattern(rho.n, dependence_order(rho), K)) is None:
        raise ClassifyError(f"no pattern matches K={format_element(K)} in {rho}")
    return match


def _match_pattern(n: int, below: list[int], K):
    """The first (case_id, x) whose chain lies in the dependence order below
    of _coding("B", n, 2), or None."""
    code = _coding("B", n, 2).code
    precedes = lambda a, b: below[code[b]] >> code[a] & 1
    for case_id in (c for c in CASE_IDS if c.startswith(K.kind)):
        for x in range(-n, n + 1):
            t = _case_triple(case_id, K, x) if x else None
            if t and precedes(t[0], t[1]) and precedes(t[1], t[2]):
                return case_id, x
    return None


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

SUITE_NAMES = ("ms-typeA", "typeB-k1", "typeB-k2", "weyl", "appendix", "all")


def _report(check: str, params: dict, ok: bool, counterexample=None) -> dict:
    rep = {"check": check, "params": params, "result": bool(ok)}
    if counterexample is not None:
        rep["counterexample"] = counterexample
    return rep


def _counted(check: str, n: int, outcome: tuple[bool, int]) -> dict:
    """Report of a check's (holds, instances); fails when it tested nothing."""
    ok, instances = outcome
    return _report(check, {"n": n, "instances": instances}, ok and instances > 0)


def _exhaustive(check: str, params: dict, verdicts) -> dict:
    """Report of a check over all its cases: verdicts yields None for each
    case that holds and a counterexample for one that fails.  Stops at the
    first counterexample, counts the cases in params.instances, and fails
    when there were none."""
    instances, bad = 0, None
    for bad in verdicts:
        instances += 1
        if bad is not None:
            break
    return _report(check, {**params, "instances": instances},
                   bad is None and instances > 0, bad)


def crossing_agreement(n: int, k: int) -> dict:
    """Exhaustive crossing-scan vs class-oracle comparison at one level."""
    return _exhaustive("crossing-vs-oracle", {"n": n, "k": k}, (
        None if crosses(rho, a, b) == crosses_oracle(rho, a, b)
        else {"rho": str(rho), "a": format_element(a), "b": format_element(b)}
        for rho in enumerate_admissible("B", n, k)
        for a, b in itertools.permutations(rho.seq, 2)))


def blocking_agreement(n: int) -> dict:
    """class_flip_candidates (build_poset's test) vs class enumeration, all
    (rho, K).  Each class is enumerated once, by class_members at its first
    listed ordering, and not keyed by the canonical_form under test."""
    def verdicts():
        labels, seen = enumerate_B(n, 3), set()
        for first in enumerate_admissible("B", n, 2):
            if first.seq in seen:
                continue
            members = class_members(first)
            seen.update(rho.seq for rho in members)
            direct = frozenset().union(*map(flip_candidates, members))
            for rho in members:
                fast = class_flip_candidates(canonical_form(rho))
                yield from (None if (K in fast) == (K in direct)
                            else {"rho": str(rho), "K": format_element(K)}
                            for K in labels)
    return _exhaustive("blocking-vs-class-enumeration", {"n": n, "k": 2}, verdicts())


def _blocked_flips(p):
    """(id, below, blocked, flips) for each node of p = build_poset("B", n, 2):
    its heap's below masks, then its uninverted labels that _class_flips,
    build_poset's test, finds blocked, and the label codes it flips."""
    if p.family != "B" or p.k != 2:
        raise ValueError(f"needs a type B level-2 poset, got {p.family}({p.n},{p.k})")
    coding = _coding("B", p.n, 2)
    for i, nd in enumerate(p.nodes):
        below = _down(coding.partners, nd.canon)
        flips = _class_flips(coding.labels, below, _down(coding.partners, nd.canon[::-1]),
                             skip=nd.inv)
        done = nd.inv | sum(1 << j for j in flips)
        yield i, below, _mask_labels(coding.labels, ~done), flips


def classification_exhaustive(p) -> dict:
    """Every blocked, uninverted level-3 flip of a class of p =
    build_poset("B", n, 2) matches a pattern on the class's heap.  Counts
    class instances: each node's blocked labels (_blocked_flips)."""
    return _exhaustive("blocked-flip-classification", {"n": p.n}, (
        None if _match_pattern(p.n, below, K)
        else {"canon": str(p.order(i)), "K": format_element(K)}
        for i, below, blocked, _flips in _blocked_flips(p) for K in blocked))


def escape_witness_agreement(n: int) -> dict:
    """Every escape from a packet interval stays in the class and drops x: on
    codes, over every admissible sequence, level-3 packet S and code outside S
    that does not block it.  A TotalOrder is built only for a counterexample."""
    coding = _coding("B", n, 2)
    partners, ground = coding.partners, coding.ground

    def spanned(seq, pos, S):       # the codes from S's lowest slot to its highest
        ps = [pos[s] for s in S]
        return sum(1 << c for c in seq[min(ps):max(ps) + 1])

    def verdicts():
        for seq in admissible_sequences(range(len(ground)),
                                        [comps for _K, comps in coding.labels]):
            pos, below = _slots(seq), _down(partners, seq)
            for K, ((S, _mask),) in coding.labels:
                interval = spanned(seq, pos, S)
                for i in seq:
                    if i in S or _blocks(below, i, S):
                        continue
                    w = _escape(seq, pos, below, S, i)
                    inside = interval if w is seq else spanned(w, _slots(w), S)
                    yield (None if not inside >> i & 1 and not inside & ~interval
                           and (w is seq or _down(partners, w) == below)
                           else {"rho": str(TotalOrder("B", n, 2, tuple(
                                     ground[c] for c in seq))),
                                 "K": format_element(K), "x": format_element(ground[i])})
    return _exhaustive("interval-escape-witness", {"n": n}, verdicts())


def obstruction_case_suite(n: int = 3) -> list[dict]:
    """The seven standard cases, then the negative control, which passes
    exactly when it lists no ordering."""
    out = [case_report(c).to_json_obj() for c in standard_cases(n)]
    control = case_report(falsified_case(n))
    out.append({
        "check": "obstruction-case-negative-control",
        "params": {"case": control.case.case_id, "n": n},
        "result": control.extensions == 0,
        "extensions": control.extensions,
    })
    return out


def nonmaximal_has_flip(p) -> dict:
    """Each class of p = build_poset("B", n, 2) but the top has an uninverted flip."""
    stuck = [i for i, _, blocked, flips in _blocked_flips(p) if blocked and not flips]
    return _report("nonmaximal-class-has-flip", {"n": p.n, "k": 2}, not stuck,
                   {"canon": str(p.order(stuck[0]))} if stuck else None)


def run_suite(name: str, n: int = 3) -> list[dict]:
    """Run one named verification suite up to rank n, one check at a time."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    out: list[dict] = []
    for task in _suite_tasks(name, n):
        r = _run_task(task)
        out.extend(r if isinstance(r, list) else [r])
    return out


def _run_task(task):
    """A task's reports, or one failed report naming the exception it raised."""
    try:
        return task()
    except Exception as exc:
        import traceback   # here, not at the top: it adds to every import of bruhatb
        rep = _report("task-raised", {"error": f"{type(exc).__name__}: {exc}"}, False)
        rep["traceback"] = traceback.format_exc()
        return rep


def _suite_tasks(name: str, n: int):
    """The suite's checks as argument-less tasks, in report order.

    One memo per run: each poset is built once.  The flip-poset check and
    the reduced-word count read the poset alone: chains_bijection_check is a
    local certificate, node by node, and count_chains a path count, so
    neither lists a chain or an ordering.  The only listing is B(n,1)'s
    chain-word table per rank, read off its edges on codes (weyl.chain_words);
    one braid walk over each (weyl.braid_correspondence) gives both the
    flip-braid and the swap-commutation report.
    """
    import math
    from functools import cache, partial

    from . import weyl
    # read at call time, so a patched orders.build_poset (tests, the bench
    # tracer) is the one the suite runs; a module-level import would not see it
    from .orders import build_poset, chains_bijection_check, check_extrema, \
        count_chains, inv_injectivity_check

    poset = cache(build_poset)
    words = cache(lambda nn: weyl.chain_words(poset("B", nn, 1)))
    braids = cache(lambda nn: weyl.braid_correspondence(words(nn), "B", nn))

    def flip_poset(family, nn, k, expect_nodes=None):
        p = poset(family, nn, k)
        rep = check_extrema(p)
        ok = rep.unique_min and rep.unique_max and rep.graded
        ok = ok and inv_injectivity_check(p) and chains_bijection_check(p)
        counts = {"nodes": len(p.nodes)}
        if expect_nodes is not None:
            ok = ok and len(p.nodes) == expect_nodes
            counts["expected_nodes"] = expect_nodes
        return _report("flip-poset", {"family": family, "n": nn, "k": k, **counts,
                                      "chains": count_chains(p)}, ok)

    tasks = []
    if name in ("ms-typeA", "all"):
        for nn in range(3, n + 1):
            for k in range(1, min(nn - 1, 3) + 1):
                expect = math.factorial(nn) if k == 1 else None
                tasks.append(partial(flip_poset, "A", nn, k, expect))
        tasks.append(lambda: _report(
            "reduced-word-count", {"family": "A", "n": n},
            count_chains(poset("A", n, 1)) == len(weyl.reduced_words_brute("A", n))))
    if name in ("typeB-k1", "all"):
        for nn in range(2, n + 1):
            expect = 2 ** nn * math.factorial(nn)
            tasks.append(partial(flip_poset, "B", nn, 1, expect))
            tasks.append(lambda nn=nn: _report(
                "weak-order-isomorphism", {"n": nn},
                weyl._iso_check(poset("B", nn, 1))))
    if name in ("typeB-k2", "all"):
        for nn in range(2, n + 1):
            tasks.append(partial(flip_poset, "B", nn, 2))
            tasks.append(lambda nn=nn: blocking_agreement(nn))
            tasks.append(lambda nn=nn: nonmaximal_has_flip(poset("B", nn, 2)))
    if name in ("weyl", "all"):
        for nn in range(2, n + 1):
            tasks.append(lambda nn=nn: _report(
                "root-inversion-compatibility", {"n": nn},
                weyl.check_root_inversions(nn)))
            tasks.append(lambda nn=nn: _report(
                "chain-words-reduced", {"n": nn},
                sorted(words(nn).values())
                == sorted(weyl.reduced_words_brute("B", nn))))
            tasks.append(lambda nn=nn: _counted(
                "level1-group-bijection", nn, weyl.level1_group_bijection_check(nn)))
            tasks.append(lambda nn=nn: _counted(
                "flip-braid-correspondence", nn, braids(nn)[0]))
            if nn >= 3:     # B(2,2) has no commuting adjacent pair to swap
                tasks.append(lambda nn=nn: _counted(
                    "swap-commutation-correspondence", nn, braids(nn)[1]))
    if name in ("appendix", "all"):
        for nn in range(2, n + 1):
            for k in (1, 2):
                tasks.append(lambda nn=nn, k=k: crossing_agreement(nn, k))
        tasks.append(lambda: obstruction_case_suite(3))
        tasks.append(lambda: classification_exhaustive(poset("B", 3, 2)))
        tasks.append(lambda: escape_witness_agreement(3))
    return tasks


def reports_to_json(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2)
