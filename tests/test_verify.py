"""Crossing, blocking, escape witnesses, and the obstruction case machinery."""

import functools
import itertools

import pytest

from bruhatb.core import enumerate_B, format_element, normalize_orbit, packet_B, star
from bruhatb.orders import (
    OrderClass,
    build_poset,
    class_flip_candidates,
    class_members,
    dependence_order,
    inversion_set,
    enumerate_admissible,
    maximal_chains,
    rho_min,
)
from bruhatb.verify import (
    CASE_IDS,
    _case_triple,
    blocking_agreement,
    blocks,
    blocks_oracle,
    case_report,
    class_flip_candidates_oracle,
    classification_exhaustive,
    classify_blocked_flip,
    crosses,
    crossing_agreement,
    escape_witness_agreement,
    falsified_case,
    flip_candidate_by_blocking,
    interval_escape_witness,
    make_case,
    minimal_chain,
    nonmaximal_has_flip,
    run_suite,
    standard_cases,
)


def _linear_extensions(seq, below) -> list[tuple]:
    """Every ordering of seq that lists each position after its down-set."""
    out = []

    def extend(prefix, placed):
        if len(prefix) == len(seq):
            out.append(tuple(seq[j] for j in prefix))
            return
        for j in range(len(seq)):
            if not placed >> j & 1 and not below[j] & ~placed:
                extend(prefix + [j], placed | 1 << j)

    extend([], 0)
    return out


def _rank3_cases() -> list:
    """Every instantiation of the seven patterns at rank 3."""
    J3 = [v for v in range(-3, 4) if v != 0]
    cases = []
    for K in enumerate_B(3, 3):
        ids = [c for c in CASE_IDS
               if c.startswith("orbit" if K.kind == "orbit" else "star")]
        for cid in ids:
            for x in J3:
                try:
                    cases.append(make_case(cid, K, x, 3))
                except ValueError:
                    continue
    return cases


@functools.cache
def _b32_admissible() -> tuple:
    """The admissible B(3,2) orderings, read as the maximal chains of B(3,1)."""
    return tuple(maximal_chains(build_poset("B", 3, 1)))


def _case_counts_reference(case) -> tuple:
    """(orientations, acyclic, extensions) of a rank-3 case, by filtering.

    At rank 3 every case's ambient double packet is the whole B(3,2) ground
    set and its packets are all seven level-3 packets, so the case's
    orderings are the admissible B(3,2) orderings (the maximal chains of
    B(3,1)) that keep every pair of case.seq sharing a packet in case.seq's
    order.
    """
    packets = {S: packet_B(S).components[0] for S in enumerate_B(3, 3)}
    pinned = [(q1, q2) for q1, q2 in itertools.combinations(case.seq, 2)
              if any(q1 in c and q2 in c for c in packets.values())]
    open_chains = [c for c in packets.values()
                   if not any(q1 in c and q2 in c for q1, q2 in pinned)]
    kept = [seq for seq in _b32_admissible()
            if all(seq.index(q1) < seq.index(q2) for q1, q2 in pinned)]
    realised = {tuple(seq.index(c[0]) < seq.index(c[1]) for c in open_chains)
                for seq in kept}
    return 2 ** len(open_chains), len(realised), len(kept)


class TestMinimalChain:
    def test_whole_ground_set(self):
        rho = rho_min("B", 2, 2)
        assert minimal_chain(rho, rho.seq) == rho.seq

    def test_singleton(self):
        rho = rho_min("B", 2, 2)
        assert minimal_chain(rho, [star((2,))]) == (star((2,)),)

    def test_packet_interval(self):
        rho = rho_min("B", 3, 2)
        S = packet_B(normalize_orbit((-3, 2, 1))).elements
        got = [format_element(e) for e in minimal_chain(rho, S)]
        assert got == ["[-2,-1]", "[3,*]", "[-3,2]", "[-3,1]"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimal_chain(rho_min("B", 2, 2), [])


class TestCrossing:
    def test_adjacent_commuting_pair(self):
        rho = rho_min("B", 3, 2)
        assert crosses(rho, normalize_orbit((-2, -1)), star((3,)))

    def test_same_packet_pair(self):
        rho = rho_min("B", 3, 2)
        assert not crosses(rho, normalize_orbit((-3, -2)),
                           normalize_orbit((-3, -1)))

    def test_orientation_normalization(self):
        # scanning from either endpoint gives the same verdict
        rho = rho_min("B", 3, 2)
        rev = rho.reverse()
        for a, b in itertools.combinations(rho.seq, 2):
            assert crosses(rho, a, b) == crosses(rho, b, a)
            assert crosses(rho, a, b) == crosses(rev, a, b)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2)])
    def test_matches_oracle_exhaustively(self, n, k):
        rep = crossing_agreement(n, k)
        assert rep["result"], rep

    def test_rejects_equal_elements(self):
        with pytest.raises(ValueError):
            crosses(rho_min("B", 2, 2), star((1,)), star((1,)))


class TestBlocking:
    def test_tight_interval_never_blocks(self):
        rho = rho_min("B", 3, 2)
        S = set(packet_B(normalize_orbit((-3, -2, -1))).elements)
        assert set(minimal_chain(rho, S)) == S
        for x in rho.seq:
            if x not in S:
                assert not blocks(rho, x, S)

    def test_x_inside_s_rejected(self):
        rho = rho_min("B", 2, 2)
        S = packet_B(star((2, 1))).elements
        with pytest.raises(ValueError):
            blocks(rho, star((1,)), S)

    def test_blocked_flip_has_blocker(self):
        # whenever no class member makes the packet an interval, some
        # element is trapped inside the interval in every member
        found = 0
        for rho in enumerate_admissible("B", 3, 2):
            available = class_flip_candidates_oracle(rho)
            for K in enumerate_B(3, 3):
                if K in available:
                    continue
                S = packet_B(K).elements
                assert any(blocks(rho, x, S) for x in rho.seq if x not in S)
                found += 1
        assert found > 0

    def test_flip_candidacy_small(self):
        assert flip_candidate_by_blocking(rho_min("B", 2, 2), star((2, 1)))

    def test_blocking_agreement_rank2(self):
        assert blocking_agreement(2)["result"]


class TestHeapAgainstOracle:
    """Decisions on the dependence order against class enumeration."""

    @pytest.mark.parametrize("family,n,k", [("A", 4, 2), ("B", 3, 2)])
    def test_classes_are_linear_extensions(self, family, n, k):
        for rho in enumerate_admissible(family, n, k):
            extensions = _linear_extensions(rho.seq, dependence_order(rho))
            members = {m.seq for m in class_members(rho)}
            assert len(extensions) == len(members)
            assert set(extensions) == members

    # packets with several components occur only at type B level 1
    @pytest.mark.parametrize("family,n,k", [
        ("A", 4, 2), ("A", 5, 2), ("A", 6, 4),
        ("B", 2, 1), ("B", 3, 1), ("B", 3, 2), ("B", 4, 2)])
    def test_class_flip_candidates_every_class(self, family, n, k):
        for node in build_poset(family, n, k).nodes.values():
            assert class_flip_candidates(OrderClass(node.canon)) == \
                class_flip_candidates_oracle(node.canon), str(node.canon)

    def test_blocks_every_case_rank3(self):
        cases = 0
        for node in build_poset("B", 3, 2).nodes.values():
            rho = node.canon
            for K in enumerate_B(3, 3):
                S = packet_B(K).elements
                for x in rho.seq:
                    if x not in S:
                        assert blocks(rho, x, S) == blocks_oracle(rho, x, S)
                        cases += 1
        assert cases == 546


class TestEscapeWitness:
    def test_exhaustive_rank3(self):
        rep = escape_witness_agreement(3)
        assert rep["result"] and rep["params"]["instances"] == 888, rep

    def test_rank2_checks_nothing_and_fails(self):
        rep = escape_witness_agreement(2)
        assert rep["params"]["instances"] == 0 and not rep["result"]

    def test_nontrivial_witnesses_are_class_members(self):
        nontrivial = 0
        for rho in enumerate_admissible("B", 3, 2):
            members = {m.seq for m in class_members(rho)}
            for K in enumerate_B(3, 3):
                S = packet_B(K).elements
                interval = set(minimal_chain(rho, S))
                for x in interval - S:
                    if blocks(rho, x, S):
                        continue
                    nontrivial += 1
                    w = interval_escape_witness(rho, S, x)
                    inside = set(minimal_chain(w, S))
                    assert w.seq in members, (str(rho), str(K), x)
                    assert x not in inside and inside < interval
        assert nontrivial == 124

    def test_witness_properties_sampled(self):
        rho = rho_min("B", 3, 2)
        K = normalize_orbit((-3, 2, 1))
        S = packet_B(K).elements
        inside = set(minimal_chain(rho, S)) - set(S)
        for x in inside:
            if blocks(rho, x, S):
                continue
            w = interval_escape_witness(rho, S, x)
            assert x not in set(minimal_chain(w, S))
            assert set(minimal_chain(w, S)) <= set(minimal_chain(rho, S))

    def test_blocked_x_rejected(self):
        for rho in enumerate_admissible("B", 3, 2):
            available = class_flip_candidates_oracle(rho)
            for K in enumerate_B(3, 3):
                if K in available:
                    continue
                S = packet_B(K).elements
                x = next(x for x in rho.seq
                         if x not in S and blocks(rho, x, S))
                with pytest.raises(ValueError):
                    interval_escape_witness(rho, S, x)
                return


class TestObstructionCases:
    def test_seven_cases_pass(self):
        for case in standard_cases():
            rep = case_report(case)
            assert rep.ok, case.case_id
            assert rep.extensions > 0, case.case_id

    def test_case_sequences(self):
        by_id = {c.case_id: c for c in standard_cases()}
        assert [format_element(e) for e in by_id["orbit1"].seq] == \
            ["[-3,-2]", "[-3,2]", "[-3,-1]", "[-2,-1]"]
        assert [format_element(e) for e in by_id["star4"].seq] == \
            ["[-2,-1]", "[-3,1]", "[-2,1]", "[1,*]"]
        assert len(by_id["orbit3"].seq) == 3

    def test_all_instantiations_rank3(self):
        cases = _rank3_cases()
        for case in cases:
            rep = case_report(case)
            assert rep.ok and rep.extensions > 0, (case.case_id, str(case.K), case.x)
        assert len(cases) == 48

    def test_counts_match_chain_reference(self):
        assert len(_b32_admissible()) == 42
        for case in _rank3_cases() + [falsified_case()]:
            rep = case_report(case)
            got = (rep.orientations, rep.acyclic, rep.extensions)
            assert got == _case_counts_reference(case), \
                (case.case_id, str(case.K), case.x)

    def test_ordering_without_witness_fails(self, monkeypatch):
        import bruhatb.verify as verify
        monkeypatch.setattr(verify, "_extension_has_witness", lambda *a: False)
        rep = case_report(standard_cases()[0])
        assert not rep.ok and rep.extensions == 1
        assert rep.failure in _b32_admissible()

    def test_negative_control_is_vacuous(self):
        rep = case_report(falsified_case())
        assert rep.ok and rep.extensions == 0 and rep.acyclic == 0

    def test_invalid_instantiation_rejected(self):
        with pytest.raises(ValueError):
            make_case("orbit1", normalize_orbit((-3, -2, -1)), 3)
        with pytest.raises(ValueError):
            make_case("star1", star((2, 1)), 2)

    def test_report_serializes(self):
        rep = case_report(standard_cases()[0])
        obj = rep.to_json_obj()
        assert obj["result"] and obj["check"] == "obstruction-case"


class TestClassification:
    def test_exhaustive_rank3(self):
        rep = classification_exhaustive(3)
        assert rep["result"], rep

    def test_rank2_checks_nothing_and_fails(self):
        rep = classification_exhaustive(2)
        assert rep["params"]["checked"] == 0 and not rep["result"]

    def test_precondition_enforced(self):
        rho = rho_min("B", 2, 2)
        with pytest.raises(ValueError):
            classify_blocked_flip(rho, star((2, 1)))

    def test_witness_is_external(self):
        checked = 0
        for rho in enumerate_admissible("B", 3, 2):
            available = class_flip_candidates_oracle(rho)
            inv = inversion_set(rho)
            members = class_members(rho)
            for K in enumerate_B(3, 3):
                if K in available or K in inv:
                    continue
                case_id, x = classify_blocked_flip(rho, K)
                # the matched chain holds in every member of the class
                a, b, c = _case_triple(case_id, K, x)
                assert all(m.positions[a] < m.positions[b] < m.positions[c]
                           for m in members)
                checked += 1
                if K.kind == "star":
                    assert abs(x) not in K.entries
                else:
                    triple = make_case(case_id, K, x, 3)
                    assert len(triple.seq) >= 3
        assert checked == 105

    def test_nonmaximal_always_has_flip(self):
        assert nonmaximal_has_flip(2)["result"]
        assert nonmaximal_has_flip(3)["result"]


class TestWeylSuite:
    def test_certifies_word_claims(self):
        reports = run_suite("weyl", 3)
        names = [(r["check"], r["params"]["n"]) for r in reports]
        for nn in (2, 3):
            assert ("level1-group-bijection", nn) in names
            assert ("flip-braid-correspondence", nn) in names
        assert ("swap-commutation-correspondence", 3) in names
        assert len(reports) == 9 and all(r["result"] for r in reports)
