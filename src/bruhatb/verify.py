"""Crossing, blocking, and the case machinery behind the level-2 theorems.

Everything here is desk-scale verification: a linear scan that decides
whether two elements can exchange their relative order inside a commutation
class, blocking and pattern tests decided on the class's dependence order,
and a witness search that certifies the seven obstruction patterns arising
when a level-3 flip is blocked.  Each obstruction case enumerates the
admissible orderings of its ambient double packet (the orderings that keep
every packet of the ambient level-4 element in packet order or reversed)
with orders.admissible_sequences, the backtracker behind
enumerate_admissible.  Oracles that enumerate the class by swaps
(crosses_oracle, blocks_oracle, class_flip_candidates_oracle) live alongside.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .core import (
    BElem,
    _level_elements,
    enumerate_B,
    format_element,
    normalize_orbit,
    packet_B,
    standard_key,
    star,
)
from .orders import (
    OrderClass,
    TotalOrder,
    admissible_sequences,
    canonical_form,
    class_flip_candidates,
    class_members,
    commutes,
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
    S = set(S)
    if not S:
        raise ValueError("minimal chain of an empty set")
    ps = sorted(rho.positions[e] for e in S)
    return rho.seq[ps[0]:ps[-1] + 1]


def crosses_in_seq(seq, a, b, commute) -> bool:
    """Single-scan crossing test on an arbitrary sequence.

    Orient so a precedes b, then grow a list of elements pinned to a: each
    element between them joins when it fails to commute with something
    already pinned.  a and b can cross exactly when b commutes with the whole
    pinned list.
    """
    pos = {e: i for i, e in enumerate(seq)}
    ia, ib = pos[a], pos[b]
    if ib < ia:
        seq = tuple(reversed(seq))
        ia, ib = len(seq) - 1 - ia, len(seq) - 1 - ib
    right = [a]
    for q in seq[ia + 1:ib]:
        if not all(commute(q, r) for r in right):
            right.append(q)
    return all(commute(b, r) for r in right)


def crosses(rho: TotalOrder, a, b) -> bool:
    """Whether some member of rho's commutation class reverses a and b."""
    if a == b:
        raise ValueError("crossing needs two distinct elements")
    fam, n, k = rho.family, rho.n, rho.k
    return crosses_in_seq(rho.seq, a, b, lambda u, v: commutes(u, v, fam, n, k))


def crosses_oracle(rho: TotalOrder, a, b) -> bool:
    """Class-enumeration ground truth for crosses."""
    before = rho.positions[a] < rho.positions[b]
    for member in class_members(rho):
        if (member.positions[a] < member.positions[b]) != before:
            return True
    return False


def class_flip_candidates_oracle(rho: TotalOrder) -> frozenset:
    """Class-enumeration ground truth for class_flip_candidates.

    The union of flip_candidates over every member of rho's class.
    """
    out: set = set()
    for member in class_members(rho):
        out |= flip_candidates(member)
    return frozenset(out)


def blocks(rho: TotalOrder, x, S) -> bool:
    """Whether x sits inside the interval around S in every class member.

    Exactly when s1 < x < s2 in the dependence order for some s1, s2 in S:
    otherwise nothing of S lies below x (or above it), and listing the
    down-set of x first (or its up-set last), the rest in rho's order, gives
    a class member with x outside the interval.
    """
    S = set(S)
    if x in S:
        raise ValueError("a blocking element must lie outside S")
    index = {e: i for i, e in enumerate(rho.seq)}
    return _blocks(dependence_order(rho), index, x, S)


def _blocks(below: list[int], index: dict, x, S) -> bool:
    """blocks, given rho's dependence order and positions."""
    i = index[x]
    return (any(below[i] >> index[s] & 1 for s in S)
            and any(below[index[s]] >> i & 1 for s in S))


def blocks_oracle(rho: TotalOrder, x, S) -> bool:
    """Class-enumeration ground truth for blocks."""
    S = set(S)
    if x in S:
        raise ValueError("a blocking element must lie outside S")
    for member in class_members(rho):
        ps = [member.positions[e] for e in S]
        if not min(ps) <= member.positions[x] <= max(ps):
            return False
    return True


def flip_candidate_by_blocking(rho: TotalOrder, K) -> bool:
    """Class flip candidacy decided by absence of blocking elements."""
    S = packet_B(K).elements
    below = dependence_order(rho)
    index = {e: i for i, e in enumerate(rho.seq)}
    return not any(_blocks(below, index, x, S) for x in rho.seq if x not in S)


def interval_escape_witness(rho: TotalOrder, S, x) -> TotalOrder:
    """A class member whose interval around S shrinks to exclude x.

    rho itself when x already lies outside the interval.  Otherwise, as in
    blocks: x and its down-set first when nothing of S lies below x, else x
    and its up-set last, everything else in rho's order.  Requires that x
    does not block S.
    """
    S = set(S)
    if x in S:
        raise ValueError("x must lie outside S")
    below = dependence_order(rho)
    index = {e: i for i, e in enumerate(rho.seq)}
    if _blocks(below, index, x, S):
        raise ValueError("x blocks S; no escape exists")
    return _escape(rho, below, index, S, x)


def _escape(rho: TotalOrder, below: list[int], index: dict, S, x) -> TotalOrder:
    """interval_escape_witness past its checks, given rho's dependence order."""
    i = index[x]
    ps = [index[s] for s in S]
    if not min(ps) < i < max(ps):
        return rho
    if any(below[i] >> p & 1 for p in ps):      # x and its up-set go last
        last = [j == i or bool(below[j] >> i & 1) for j in range(len(below))]
    else:                                       # x and its down-set go first
        last = [j != i and not below[i] >> j & 1 for j in range(len(below))]
    order = sorted(range(len(below)), key=last.__getitem__)
    return TotalOrder(rho.family, rho.n, rho.k, tuple(rho.seq[j] for j in order))


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
    if n is None:
        n = max(max(abs(v) for v in K.entries), abs(x))
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
    pinned = [e for e in seq
              if e == mid or e not in chain[lo + 1:hi]]
    return CaseSpec(case_id, n, K, x, tuple(pinned))


def standard_cases(n: int = 3) -> list[CaseSpec]:
    """The seven patterns at the smallest rank admitting distinct indices."""
    orbit_K = normalize_orbit((-3, -2, -1))
    star_K = star((2, 1))
    return [
        make_case("orbit1", orbit_K, 2, n),
        make_case("orbit2", orbit_K, 2, n),
        make_case("orbit3", orbit_K, 1, n),
        make_case("star1", star_K, 3, n),
        make_case("star2", star_K, 3, n),
        make_case("star3", star_K, 3, n),
        make_case("star4", star_K, 3, n),
    ]


def falsified_case(n: int = 3) -> CaseSpec:
    """Negative control: a case sequence ordered against its own packet."""
    base = standard_cases(n)[3]
    seq = list(base.seq)
    seq[0], seq[-1] = seq[-1], seq[0]
    return CaseSpec(base.case_id, base.n, base.K, base.x, tuple(seq))


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


def _ambient_for_case(case: CaseSpec):
    """The unique level-4 element whose double packet contains the case."""
    hits = []
    for R in _level_elements(case.n, 4):
        T: set = set()
        for S in packet_B(R).elements:
            T |= packet_B(S).elements
        if set(case.seq) <= T:
            hits.append((R, T))
    if len(hits) != 1:
        raise ValueError(f"case does not single out one ambient element: {hits}")
    return hits[0]


def case_report(case: CaseSpec) -> CaseReport:
    """Witness search certifying one obstruction pattern.

    Two elements of the case sequence that share a member packet of the
    ambient element are a pinned pair.  List the admissible orderings of the
    ambient double packet (each member packet in packet order or reversed)
    that keep every pinned pair in the case's order, and demand that each
    exhibit a packet in standard order that either starts strictly above the
    blocked packet without crossing it at the bottom, or starts level with it
    and ends strictly inside without crossing at the top.  The packets
    holding no pinned pair are open: `orientations` counts their
    orientations, `acyclic` those that some listed ordering realises, and
    `extensions` the listed orderings.
    """
    R, T = _ambient_for_case(case)
    members = sorted(packet_B(R).elements, key=standard_key)
    chains = {S: packet_B(S).components[0] for S in members}

    pinned = []
    closed = set()
    for q1, q2 in itertools.combinations(case.seq, 2):
        hosts = [S for S in members
                 if q1 in chains[S] and q2 in chains[S]]
        if not hosts:
            continue
        if len(hosts) > 1:
            raise RuntimeError("a pair lies in two distinct packets")
        pinned.append((q1, q2))
        closed.add(hosts[0])

    open_chains = [chains[S] for S in members if S not in closed]
    commute = lambda u, v: commutes(u, v, "B", case.n, 2)
    K_chain = chains[case.K]
    report = CaseReport(case, True, orientations=2 ** len(open_chains))
    realised = set()
    ground = sorted(T, key=standard_key)
    for ext in admissible_sequences(ground, [(chains[S],) for S in members]):
        pos = {e: i for i, e in enumerate(ext)}
        if any(pos[q1] > pos[q2] for q1, q2 in pinned):
            continue
        report.extensions += 1
        realised.add(tuple(pos[c[0]] < pos[c[1]] for c in open_chains))
        if not _extension_has_witness(ext, members, chains, K_chain, commute):
            report.ok = False
            report.failure = ext
            break
    report.acyclic = len(realised)
    return report


def _extension_has_witness(ext, members, chains, K_chain, commute) -> bool:
    pos = {e: i for i, e in enumerate(ext)}
    k_ps = [pos[e] for e in K_chain]
    minK = ext[min(k_ps)]
    maxK = ext[max(k_ps)]
    for S in members:
        chain = chains[S]
        ps = [pos[e] for e in chain]
        if ps != sorted(ps):
            continue  # not in standard order here
        minP, maxP = chain[0], chain[-1]
        if pos[minP] > pos[minK] and not crosses_in_seq(ext, minK, minP, commute):
            return True
        if (minP == minK and pos[maxP] < pos[maxK]
                and not crosses_in_seq(ext, maxP, maxK, commute)):
            return True
    return False


def classify_blocked_flip(rho: TotalOrder, K):
    """Match a blocked, uninverted level-3 element to one of the patterns.

    Returns (case_id, x) such that the pattern's three-element chain holds in
    every member of rho's class, i.e. is a chain of the dependence order.
    """
    if rho.family != "B" or rho.k != 2:
        raise ValueError("classification applies to type B level-2 orderings")
    if K in class_flip_candidates(canonical_form(rho)) or K in inversion_set(rho):
        raise ValueError("flip at K is available or already inverted")
    return _match_pattern(rho, dependence_order(rho), K)


def _match_pattern(rho: TotalOrder, below: list[int], K):
    """classify_blocked_flip past its precondition, given rho's dependence order."""
    index = {e: i for i, e in enumerate(rho.seq)}
    precedes = lambda a, b: below[index[b]] >> index[a] & 1
    xs = [v for v in range(-rho.n, rho.n + 1) if v != 0]
    ids = [c for c in CASE_IDS
           if c.startswith("orbit" if K.kind == "orbit" else "star")]
    for case_id in ids:
        for x in xs:
            triple = _case_triple(case_id, K, x)
            if triple is None:
                continue
            if precedes(triple[0], triple[1]) and precedes(triple[1], triple[2]):
                return case_id, x
    raise ClassifyError(
        f"no pattern matches K={format_element(K)} in {rho}")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

SUITE_NAMES = ("ms-typeA", "typeB-k1", "typeB-k2", "weyl", "appendix", "all")


def _report(check: str, params: dict, ok: bool, counterexample=None) -> dict:
    rep = {"check": check, "params": params, "result": bool(ok)}
    if counterexample is not None:
        rep["counterexample"] = counterexample
    return rep


def crossing_agreement(n: int, k: int) -> dict:
    """Exhaustive crossing-scan vs class-oracle comparison at one level."""
    bad = None
    tested = 0
    for rho in enumerate_admissible("B", n, k):
        for a, b in itertools.permutations(rho.seq, 2):
            tested += 1
            if crosses(rho, a, b) != crosses_oracle(rho, a, b):
                bad = {"rho": str(rho), "a": format_element(a),
                       "b": format_element(b)}
                break
        if bad:
            break
    return _report("crossing-vs-oracle", {"n": n, "k": k, "instances": tested},
                   bad is None, bad)


def blocking_agreement(n: int) -> dict:
    """Blocking-based flip candidacy vs class enumeration, all (rho, K)."""
    bad = None
    for rho in enumerate_admissible("B", n, 2):
        direct = class_flip_candidates_oracle(rho)
        for K in enumerate_B(n, 3):
            if flip_candidate_by_blocking(rho, K) != (K in direct):
                bad = {"rho": str(rho), "K": format_element(K)}
                break
        if bad:
            break
    return _report("blocking-vs-class-enumeration", {"n": n, "k": 2},
                   bad is None, bad)


def classification_exhaustive(n: int) -> dict:
    """Every blocked, uninverted level-3 flip matches one pattern."""
    bad = None
    checked = 0
    for rho in enumerate_admissible("B", n, 2):
        skip = class_flip_candidates(canonical_form(rho)) | inversion_set(rho)
        below = dependence_order(rho)
        for K in enumerate_B(n, 3):
            if K in skip:
                continue
            checked += 1
            try:
                _match_pattern(rho, below, K)
            except ClassifyError:
                bad = {"rho": str(rho), "K": format_element(K)}
                break
        if bad:
            break
    return _report("blocked-flip-classification", {"n": n, "checked": checked},
                   bad is None and checked > 0, bad)


def escape_witness_agreement(n: int) -> dict:
    """Every escape from a packet interval stays in the class and drops x."""
    bad = None
    instances = 0
    for rho in enumerate_admissible("B", n, 2):
        below = dependence_order(rho)
        index = {e: i for i, e in enumerate(rho.seq)}
        canon = canonical_form(rho).canon
        for K in enumerate_B(n, 3):
            S = packet_B(K).elements
            interval = set(minimal_chain(rho, S))
            for x in rho.seq:
                if x in S or _blocks(below, index, x, S):
                    continue
                instances += 1
                w = _escape(rho, below, index, S, x)
                inside = set(minimal_chain(w, S))
                if (x in inside or not inside <= interval
                        or w is not rho and canonical_form(w).canon != canon):
                    bad = {"rho": str(rho), "K": format_element(K),
                           "x": format_element(x)}
                    break
            if bad:
                break
        if bad:
            break
    return _report("interval-escape-witness", {"n": n, "instances": instances},
                   bad is None and instances > 0, bad)


def obstruction_case_suite(n: int = 3) -> list[dict]:
    reports = [case_report(c) for c in standard_cases(n)]
    out = [r.to_json_obj() for r in reports]
    control = case_report(falsified_case(n))
    out.append({
        "check": "obstruction-case-negative-control",
        "params": {"case": control.case.case_id, "n": n},
        "result": control.ok and control.extensions == 0,
        "extensions": control.extensions,
    })
    return out


def nonmaximal_has_flip(n: int) -> dict:
    """Below the top class there is always an uninverted flip candidate."""
    from .orders import build_poset
    p = build_poset("B", n, 2)
    full = p.full_inv
    stuck = [nd.canon for nd in p.nodes.values() if nd.inv != full
             and not class_flip_candidates(OrderClass(nd.canon)) - nd.inv]
    return _report("nonmaximal-class-has-flip", {"n": n, "k": 2}, not stuck,
                   {"canon": str(stuck[0])} if stuck else None)


def run_suite(name: str, n: int = 3) -> list[dict]:
    """Run one named verification suite up to rank n, one check at a time."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    out: list[dict] = []
    for task in _suite_tasks(name, n):
        r = _run_task(task)
        if isinstance(r, list):
            out.extend(r)
        else:
            out.append(r)
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
    from . import weyl
    from .orders import build_poset, check_extrema, chains_bijection_check, \
        inv_injectivity_check, maximal_chains

    def poset_checks(family, nn, k, expect_nodes=None):
        def run():
            p = build_poset(family, nn, k)
            rep = check_extrema(p)
            ok = rep.unique_min and rep.unique_max and rep.graded
            ok = ok and inv_injectivity_check(p)
            counts = {"nodes": len(p.nodes)}
            if expect_nodes is not None:
                ok = ok and len(p.nodes) == expect_nodes
                counts["expected_nodes"] = expect_nodes
            ok = ok and chains_bijection_check(p)
            counts["chains"] = len(maximal_chains(p))
            return _report("flip-poset", {"family": family, "n": nn, "k": k,
                                          **counts}, ok)
        return run

    import math
    tasks = []
    if name in ("ms-typeA", "all"):
        for nn in range(3, n + 1):
            for k in range(1, min(nn - 1, 3) + 1):
                expect = math.factorial(nn) if k == 1 else None
                tasks.append(poset_checks("A", nn, k, expect))
        tasks.append(lambda: _report(
            "reduced-word-count", {"family": "A", "n": n},
            len(maximal_chains(build_poset("A", n, 1)))
            == len(weyl.reduced_words_brute("A", n))))
    if name in ("typeB-k1", "all"):
        for nn in range(2, n + 1):
            expect = 2 ** nn * math.factorial(nn)
            tasks.append(poset_checks("B", nn, 1, expect))
            tasks.append(lambda nn=nn: _report(
                "weak-order-isomorphism", {"n": nn}, weyl.iso_check(nn)))
    if name in ("typeB-k2", "all"):
        for nn in range(2, n + 1):
            tasks.append(poset_checks("B", nn, 2))
            tasks.append(lambda nn=nn: blocking_agreement(nn))
            tasks.append(lambda nn=nn: nonmaximal_has_flip(nn))
    if name in ("weyl", "all"):
        for nn in range(2, n + 1):
            tasks.append(lambda nn=nn: _report(
                "root-inversion-compatibility", {"n": nn},
                weyl.check_root_inversions(nn)))
            tasks.append(lambda nn=nn: _report(
                "chain-words-reduced", {"n": nn}, _chain_words_ok(nn)))
            tasks.append(lambda nn=nn: _report(
                "level1-group-bijection", {"n": nn},
                weyl.level1_group_bijection_check(nn)))
            tasks.append(lambda nn=nn: _report(
                "flip-braid-correspondence", {"n": nn},
                weyl.flip_braid_correspondence(nn)))
            if nn >= 3:     # B(2,2) has no commuting adjacent pair to swap
                tasks.append(lambda nn=nn: _report(
                    "swap-commutation-correspondence", {"n": nn},
                    weyl.swap_commutation_correspondence(nn)))
    if name in ("appendix", "all"):
        for nn in range(2, n + 1):
            for k in (1, 2):
                tasks.append(lambda nn=nn, k=k: crossing_agreement(nn, k))
        tasks.append(lambda: obstruction_case_suite(3))
        tasks.append(lambda: classification_exhaustive(3))
        tasks.append(lambda: escape_witness_agreement(3))
    return tasks


def _chain_words_ok(n: int) -> bool:
    from .orders import build_poset, maximal_chains
    from .weyl import chain_to_word, longest_b
    p = build_poset("B", n, 1)
    for labels in maximal_chains(p):
        word = chain_to_word(labels, "B", n)
        if not word.is_reduced() or word.evaluate() != longest_b(n):
            return False
    return True


def reports_to_json(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2)
