"""Crossing, blocking, escape witnesses, and the obstruction case machinery."""

import dataclasses
import functools
import hashlib
import itertools
import json

import pytest

from bruhatb.core import enumerate_B, format_element, normalize_orbit, packet_B, star
from bruhatb.orders import (
    OrderClass,
    TotalOrder,
    _coding,
    _slots,
    build_poset,
    canonical_form,
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
    CaseSpec,
    ClassifyError,
    _case_triple,
    _escape,
    blocking_agreement,
    blocks,
    blocks_oracle,
    case_report,
    class_flip_candidates_oracle,
    classification_exhaustive,
    classify_blocked_flip,
    crosses,
    crosses_oracle,
    crossing_agreement,
    escape_witness_agreement,
    falsified_case,
    interval_escape_witness,
    make_case,
    minimal_chain,
    nonmaximal_has_flip,
    obstruction_case_suite,
    run_suite,
    standard_cases,
)
from bruhatb.weyl import braid_correspondence, chain_words


def _linear_extensions(ground, below) -> list[tuple]:
    """Every ordering of ground that lists each element after its down-set.

    ground is the ground set in standard order, so below[c] is the mask of
    the codes (indices into ground) below the element of code c.
    """
    out = []

    def extend(prefix, placed):
        if len(prefix) == len(ground):
            out.append(tuple(ground[c] for c in prefix))
            return
        for c in range(len(ground)):
            if not placed >> c & 1 and not below[c] & ~placed:
                extend(prefix + [c], placed | 1 << c)

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


@functools.cache
def _classes_by_ordering(family, n, k) -> tuple:
    """(rho, class_members(rho)) for every admissible ordering rho."""
    return tuple((rho, class_members(rho)) for rho in enumerate_admissible(family, n, k))


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

    def test_rank1_level2_checks_nothing_and_fails(self):
        # B(1,2) is the single element [1,*]: no pair to compare
        rep = crossing_agreement(1, 2)
        assert rep["params"]["instances"] == 0 and not rep["result"]

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_matches_oracle_type_a(self, n, k):
        # a scan that also pinned every odd code agreed with the oracle on
        # every type B case up to rank 3, but not on A(5,3)
        for rho in enumerate_admissible("A", n, k):
            for a, b in itertools.permutations(rho.seq, 2):
                assert crosses(rho, a, b) == crosses_oracle(rho, a, b), (str(rho), a, b)

    def test_rejects_equal_elements(self):
        with pytest.raises(ValueError):
            crosses(rho_min("B", 2, 2), star((1,)), star((1,)))

    def test_oracle_rejects_equal_elements(self):
        with pytest.raises(ValueError, match="two distinct elements"):
            crosses_oracle(rho_min("B", 2, 2), star((1,)), star((1,)))

    def test_rejects_element_outside_ground_set(self):
        outside, inside = normalize_orbit((-3, 1)), star((1,))
        for a, b in [(outside, inside), (inside, outside)]:
            with pytest.raises(ValueError, match=r"\[-3,1\] is not in the ground set"):
                crosses(rho_min("B", 2, 2), a, b)


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

    def test_blocking_agreement_rank2(self):
        assert blocking_agreement(2)["result"]

    def test_enumerates_each_class_once(self, monkeypatch):
        # the 42 orderings of B(3,2) fall into its 14 classes
        from bruhatb import verify
        starts = []
        monkeypatch.setattr(verify, "class_members",
                            lambda rho: starts.append(rho) or class_members(rho))
        rep = blocking_agreement(3)
        assert rep["result"] and rep["params"]["instances"] == 42 * 7
        assert len(starts) == len(build_poset("B", 3, 2).nodes) == 14

    def test_rank1_checks_nothing_and_fails(self):
        # B(1,3) is empty: there is no level-3 element to flip
        rep = blocking_agreement(1)
        assert rep["params"]["instances"] == 0 and not rep["result"]

    def test_certifies_the_flip_test_build_poset_runs(self, monkeypatch):
        # a class-flip engine that loses its first flippable label must fail
        from bruhatb import orders
        engine = orders._class_flips
        monkeypatch.setattr(orders, "_class_flips",
                            lambda *args, **kw: engine(*args, **kw)[1:])
        rep = blocking_agreement(3)
        assert rep["params"]["instances"] > 0 and not rep["result"]
        assert "counterexample" in rep


class TestElementGate:
    """Element inputs outside rho's ground set raise a ValueError naming them."""

    rho = rho_min("B", 3, 2)
    outside = normalize_orbit((-4, 1))
    S = packet_B(normalize_orbit((-3, -2, -1))).elements

    def test_blocks(self):
        x = star((3,))
        for f in (blocks, blocks_oracle):
            for args in [(self.outside, self.S), (x, self.S | {self.outside})]:
                with pytest.raises(ValueError, match=r"\[-4,1\] is not in the ground set"):
                    f(self.rho, *args)

    def test_blocks_of_nothing(self):
        x = star((3,))
        assert blocks(self.rho, x, ()) is blocks_oracle(self.rho, x, ()) is False
        # no interval surrounds nothing, so rho itself is the escape
        assert interval_escape_witness(self.rho, (), x) is self.rho

    def test_crosses_oracle(self):
        x = star((3,))
        for args in [(self.outside, x), (x, self.outside)]:
            with pytest.raises(ValueError, match=r"\[-4,1\] is not in the ground set"):
                crosses_oracle(self.rho, *args)

    def test_minimal_chain(self):
        with pytest.raises(ValueError, match=r"\[-4,1\] is not in the ground set"):
            minimal_chain(self.rho, self.S | {self.outside})

    def test_interval_escape_witness(self):
        x = star((3,))
        for args in [(self.S, self.outside), (self.S | {self.outside}, x)]:
            with pytest.raises(ValueError, match=r"\[-4,1\] is not in the ground set"):
                interval_escape_witness(self.rho, *args)

    def test_classify_blocked_flip(self):
        K = normalize_orbit((-4, -2, -1))
        with pytest.raises(ValueError, match=r"\[-4,-2,-1\] is not a level-3 element"):
            classify_blocked_flip(self.rho, K)


class TestHeapAgainstOracle:
    """Decisions on the dependence order against class enumeration."""

    @pytest.mark.parametrize("family,n,k", [("A", 4, 2), ("B", 3, 2)])
    def test_classes_are_linear_extensions(self, family, n, k):
        for rho in enumerate_admissible(family, n, k):
            extensions = _linear_extensions(rho_min(family, n, k).seq,
                                            dependence_order(rho))
            members = {m.seq for m in class_members(rho)}
            assert len(extensions) == len(members)
            assert set(extensions) == members

    @pytest.mark.parametrize("family,n,k", [("A", 4, 2), ("A", 5, 2), ("B", 3, 2)])
    def test_canonical_form_is_least_member(self, family, n, k):
        for rho, members in _classes_by_ordering(family, n, k):
            assert canonical_form(rho).canon == members[0]

    @pytest.mark.parametrize("family,n,k", [("A", 4, 2), ("A", 5, 2), ("B", 3, 2)])
    def test_dependence_order_is_class_invariant(self, family, n, k):
        for rho, members in _classes_by_ordering(family, n, k):
            below = dependence_order(rho)
            assert all(dependence_order(m) == below for m in members)

    # packets with several components occur only at type B level 1
    @pytest.mark.parametrize("family,n,k", [
        ("A", 4, 2), ("A", 5, 2), ("A", 6, 4),
        ("B", 2, 1), ("B", 3, 1), ("B", 3, 2), ("B", 4, 2)])
    def test_class_flip_candidates_every_class(self, family, n, k):
        p = build_poset(family, n, k)
        for rho in map(p.order, range(len(p.nodes))):
            assert class_flip_candidates(OrderClass(rho)) == \
                class_flip_candidates_oracle(rho), str(rho)

    def test_class_flip_candidates_any_ordering(self):
        # inadmissible orderings too, where a packet chain's ends need not be
        # its lowest and highest elements in the dependence order
        for perm in itertools.permutations(rho_min("A", 4, 2).seq):
            rho = TotalOrder("A", 4, 2, perm)
            assert class_flip_candidates(OrderClass(rho)) == \
                class_flip_candidates_oracle(rho), str(rho)

    def test_blocks_every_case_rank3(self):
        cases = 0
        p = build_poset("B", 3, 2)
        for rho in map(p.order, range(len(p.nodes))):
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

    def test_code_escape_matches_element_witness(self):
        # the check's code-level escape against the element-level witness,
        # on every (ordering, K, x) with x outside S and not blocking it
        coding, instances = _coding("B", 3, 2), 0
        for rho in enumerate_admissible("B", 3, 2):
            seq = [coding.code[e] for e in rho.seq]
            pos, below = _slots(seq), dependence_order(rho)
            for K, ((S, _mask),) in coding.labels:
                elements = packet_B(K).elements
                assert set(S) == {coding.code[e] for e in elements}
                for i in seq:
                    x = coding.ground[i]
                    if i in S or blocks(rho, x, elements):
                        continue
                    w = _escape(seq, pos, below, S, i)
                    witness = interval_escape_witness(rho, elements, x)
                    assert (w is seq) == (witness is rho)
                    assert tuple(coding.ground[c] for c in w) == witness.seq
                    instances += 1
        assert instances == 888

    # an escape that leaves x in place, and one that lists x first whatever
    # lies below it, leaving the class
    @pytest.mark.parametrize("broken", [
        lambda seq, pos, below, S, i: list(seq),
        lambda seq, pos, below, S, i: [i] + [c for c in seq if c != i]],
        ids=["stays-inside", "leaves-class"])
    def test_broken_escape_fails(self, broken, monkeypatch):
        import bruhatb.verify as verify
        monkeypatch.setattr(verify, "_escape", broken)
        rep = escape_witness_agreement(3)
        assert not rep["result"] and set(rep["counterexample"]) == {"rho", "K", "x"}

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
        # a case that lists no ordering certifies nothing, so it fails; the
        # negative control passes exactly then
        rep = case_report(falsified_case())
        assert not rep.ok and rep.extensions == 0 and rep.acyclic == 0
        assert rep.to_json_obj()["result"] is False
        control = obstruction_case_suite(3)[-1]
        assert control["check"] == "obstruction-case-negative-control"
        assert control["result"] and control["extensions"] == 0

    def test_rank4_cases_keep_the_rank3_ambient(self):
        # at rank 3 the one level-4 element, [3,2,1,*], covers the whole
        # ground; at rank 4 it is still the only one covering each case, so
        # every case lists the same orderings
        def counts(reports):
            return [(r["params"]["case"], r.get("orientations"), r.get("acyclic"),
                     r["extensions"], r["result"]) for r in reports]
        rank4 = obstruction_case_suite(4)
        assert [r["params"]["n"] for r in rank4] == [4] * 8
        assert counts(rank4) == counts(obstruction_case_suite(3))

    def test_case_covered_by_several_ambients_rejected(self):
        # the double packets of [-4,-3,-2,-1] and [-4,-3,2,1] both hold the case
        seq = (normalize_orbit((-2, -1)), normalize_orbit((-4, -3)))
        case = CaseSpec("orbit1", 4, normalize_orbit((-3, -2, -1)), 2, seq)
        with pytest.raises(ValueError, match="^case does not single out one ambient element"):
            case_report(case)

    def test_invalid_instantiation_rejected(self):
        with pytest.raises(ValueError):
            make_case("orbit1", normalize_orbit((-3, -2, -1)), 3)
        with pytest.raises(ValueError):
            make_case("star1", star((2, 1)), 2)

    def test_beyond_rank_rejected(self):
        for K, x in [(normalize_orbit((-4, -2, -1)), 3), (star((2, 1)), 4)]:
            with pytest.raises(ValueError, match="beyond rank n=3"):
                make_case("orbit1" if K.kind == "orbit" else "star1", K, x, 3)
        assert make_case("orbit1", normalize_orbit((-4, -2, -1)), 3).n == 4

    def test_report_serializes(self):
        rep = case_report(standard_cases()[0])
        obj = rep.to_json_obj()
        assert obj["result"] and obj["check"] == "obstruction-case"


class TestClassification:
    def test_exhaustive_rank3(self):
        rep = classification_exhaustive(build_poset("B", 3, 2))
        assert rep["result"] and rep["params"]["instances"] == 35, rep

    def test_rank2_checks_nothing_and_fails(self):
        rep = classification_exhaustive(build_poset("B", 2, 2))
        assert rep["params"]["instances"] == 0 and not rep["result"]

    @pytest.mark.parametrize("n,orderings,classes", [(2, 0, 0), (3, 105, 35)])
    def test_class_verdicts_match_every_ordering(self, n, orderings, classes,
                                                 monkeypatch):
        # the check's verdict per (class heap, K) against classify_blocked_flip
        # on every admissible ordering, blocked labels found by enumeration
        import bruhatb.verify as verify
        by_class, match = {}, verify._match_pattern

        def recording(nn, below, K):
            by_class[tuple(below), K] = got = match(nn, below, K)
            return got
        monkeypatch.setattr(verify, "_match_pattern", recording)
        rep = classification_exhaustive(build_poset("B", n, 2))
        monkeypatch.undo()
        assert rep["params"]["instances"] == len(by_class) == classes
        assert rep["result"] == (classes > 0)
        seen, instances = set(), 0
        for rho in enumerate_admissible("B", n, 2):
            skip = class_flip_candidates_oracle(rho) | inversion_set(rho)
            for K in enumerate_B(n, 3):
                if K not in skip:
                    key = tuple(dependence_order(rho)), K
                    assert classify_blocked_flip(rho, K) == by_class[key], str(rho)
                    seen.add(key)
                    instances += 1
        assert instances == orderings and seen == set(by_class)

    # at rank 3 only orbit3 and star3 are ever an instance's sole match, so
    # dropping either fails the check, and dropping any other pattern does not
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_each_sole_match_pattern_is_needed(self, case_id, monkeypatch):
        import bruhatb.verify as verify
        triple = verify._case_triple
        monkeypatch.setattr(verify, "_case_triple", lambda c, K, x:
                            None if c == case_id else triple(c, K, x))
        p = build_poset("B", 3, 2)
        rep = classification_exhaustive(p)
        assert rep["result"] == (case_id not in ("orbit3", "star3"))
        if not rep["result"]:
            bad = rep["counterexample"]
            (rho,) = [p.order(i) for i in range(len(p.nodes))
                      if str(p.order(i)) == bad["canon"]]
            (K,) = [K for K in enumerate_B(3, 3) if format_element(K) == bad["K"]]
            assert case_id.startswith(K.kind)
            with pytest.raises(ClassifyError):
                classify_blocked_flip(rho, K)

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
        assert nonmaximal_has_flip(build_poset("B", 2, 2))["result"]
        assert nonmaximal_has_flip(build_poset("B", 3, 2))["result"]

    def test_nonmaximal_names_a_stuck_class(self):
        # a copy of B(3,2) in which a non-top class inverts every label but
        # one that is blocked in it: that class has no flip left
        p = build_poset("B", 3, 2)
        labels = [K for K, _comps in _coding("B", 3, 2).labels]
        full = (1 << len(labels)) - 1
        i, c = next((i, c) for i, nd in enumerate(p.nodes) if nd.inv != full
                    for c, K in enumerate(labels)
                    if K not in class_flip_candidates(OrderClass(p.order(i))))
        nodes = list(p.nodes)
        nodes[i] = dataclasses.replace(nodes[i], inv=full & ~(1 << c))
        rep = nonmaximal_has_flip(dataclasses.replace(p, nodes=nodes))
        assert not rep["result"]
        assert rep["counterexample"] == {"canon": str(p.order(i))}

    @pytest.mark.parametrize("family,n,k", [("B", 3, 1), ("A", 4, 2)])
    def test_nonmaximal_needs_type_b_level_2(self, family, n, k):
        with pytest.raises(ValueError, match="type B level-2 poset"):
            nonmaximal_has_flip(build_poset(family, n, k))

    @pytest.mark.parametrize("family,n,k", [("B", 3, 1), ("A", 4, 2)])
    def test_classification_needs_type_b_level_2(self, family, n, k):
        with pytest.raises(ValueError, match="type B level-2 poset"):
            classification_exhaustive(build_poset(family, n, k))

    def test_level3_checks_build_no_total_order(self, monkeypatch):
        p, built, post = build_poset("B", 3, 2), [], TotalOrder.__post_init__
        monkeypatch.setattr(TotalOrder, "__post_init__",
                            lambda self: built.append(self) or post(self))
        assert classification_exhaustive(p)["result"]
        assert escape_witness_agreement(3)["result"]
        assert built == []
        rho_min("B", 3, 2)
        assert len(built) == 1      # the count sees a construction


class TestMsTypeASuite:
    @pytest.mark.parametrize("n", [2, 4])
    def test_each_poset_built_once_and_never_listed(self, n, monkeypatch):
        from bruhatb import orders, weyl
        built, listed, paths = [], [], orders._paths

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_poset(*args, **kwargs)

        def counting_paths(p, tokens):
            listed.append((p.family, p.n, p.k))
            return paths(p, tokens)
        monkeypatch.setattr(orders, "build_poset", counting_build)
        monkeypatch.setattr(orders, "_paths", counting_paths)
        monkeypatch.setattr(weyl, "_paths", counting_paths)
        reports = run_suite("ms-typeA", n)
        configs = [("A", nn, k) for nn in range(3, n + 1)
                   for k in range(1, min(nn - 1, 3) + 1)] or [("A", n, 1)]
        assert built == configs and listed == []
        assert reports[-1]["check"] == "reduced-word-count"
        assert all(r["result"] for r in reports)


class TestAllSuite:
    def test_each_poset_built_once(self, monkeypatch):
        from bruhatb import orders, weyl
        built, listed, paths = [], [], orders._paths

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_poset(*args, **kwargs)

        def counting_paths(p, tokens):
            listed.append((p.family, p.n, p.k))
            return paths(p, tokens)
        monkeypatch.setattr(orders, "build_poset", counting_build)
        monkeypatch.setattr(weyl, "build_poset", counting_build)
        monkeypatch.setattr(orders, "_paths", counting_paths)
        monkeypatch.setattr(weyl, "_paths", counting_paths)
        reports = run_suite("all", 3)
        configs = [("A", 3, 1), ("A", 3, 2), ("B", 2, 1), ("B", 2, 2),
                   ("B", 3, 1), ("B", 3, 2)]
        # only the chain-word tables list chains, one listing per rank
        assert sorted(built) == configs and listed == [("B", 2, 1), ("B", 3, 1)]
        assert all(r["result"] for r in reports)

    # sha256 of [(check, params, result)] for run_suite("all", 3) in order, as
    # JSON; pinned from the reports before the four exhaustive checks shared
    # one loop, with blocking-vs-class-enumeration given its instance count
    # and blocked-flip-classification's "checked" renamed to "instances";
    # repinned when that check's instances became class instances, 105 -> 35
    def test_golden_reports(self):
        reports = run_suite("all", 3)
        text = json.dumps([(r["check"], r["params"], r["result"]) for r in reports])
        assert (len(reports), hashlib.sha256(text.encode()).hexdigest()) == (
            36, "0d92622159e04faff883080848c9dbff347ca91d7c4a5da10f400b40b9e444e1")


class TestWeylSuite:
    def test_certifies_word_claims(self):
        reports = run_suite("weyl", 3)
        names = [(r["check"], r["params"]["n"]) for r in reports]
        for nn in (2, 3):
            assert ("level1-group-bijection", nn) in names
            assert ("flip-braid-correspondence", nn) in names
        assert ("swap-commutation-correspondence", 3) in names
        assert len(reports) == 9 and all(r["result"] for r in reports)
        counted = [r for r in reports if "instances" in r["params"]]
        assert len(counted) == 5 and all(r["params"]["instances"] > 0 for r in counted)
        assert {r["params"]["instances"] for r in counted
                if r["check"] == "level1-group-bijection"} == {8, 48}

    def test_check_that_tests_nothing_fails(self):
        from bruhatb.verify import _counted
        rep = _counted("swap-commutation-correspondence", 2,
                       braid_correspondence(chain_words(build_poset("B", 2, 1)), "B", 2)[1])
        assert rep["params"] == {"n": 2, "instances": 0} and not rep["result"]
        assert not _counted("flip-braid-correspondence", 2, (False, 4))["result"]

    def test_wrong_commutation_fails_only_the_swaps(self, monkeypatch):
        # one braid walk gives both reports, each with its own verdict
        from bruhatb import weyl
        order = weyl._generator_order
        monkeypatch.setattr(weyl, "_generator_order", lambda family, n, a, b:
                            3 if abs(a - b) > 1 else order(family, n, a, b))
        failed = [(r["check"], r["params"]) for r in run_suite("weyl", 3)
                  if not r["result"]]
        assert failed == [("swap-commutation-correspondence", {"n": 3, "instances": 80})]

    def test_shared_chain_word_fails(self, monkeypatch):
        # two chains with one word: every word is still reduced, but the
        # table no longer matches the reduced words one to one
        from bruhatb import weyl
        chain_words_of = weyl.chain_words

        def shared(p):
            table = chain_words_of(p)
            first, second = list(table)[:2]
            table[second] = table[first]
            return table
        monkeypatch.setattr(weyl, "chain_words", shared)
        for n in (2, 3):
            (rep,) = [r for r in run_suite("weyl", n)
                      if r["check"] == "chain-words-reduced" and r["params"]["n"] == n]
            assert not rep["result"]

    def test_weak_order_missing_the_top_fails(self, monkeypatch):
        # the oracle's words are paths to the closed-form longest element, so
        # a weak order that misses it gives no words to match the chains
        from bruhatb import weyl
        weak_order = weyl.weak_order

        def topless(family, n):
            weak = weak_order(family, n)
            top = weyl.longest_b(n).images
            weak.edges = {e for e in weak.edges if e[1] != top}
            return weak
        monkeypatch.setattr(weyl, "weak_order", topless)
        (rep,) = [r for r in run_suite("weyl", 2) if r["check"] == "chain-words-reduced"]
        assert rep["params"] == {"n": 2} and not rep["result"]

    def test_wrong_edge_letter_fails(self, monkeypatch):
        # the isomorphism, the chain words and the braid walk read one letter
        # rule, so one wrong edge letter fails each of them
        from bruhatb import weyl
        edge_letters = weyl._edge_letters

        def wrong(p):
            letters = edge_letters(p)
            letters[0] = (letters[0] + 1) % p.n
            return letters
        monkeypatch.setattr(weyl, "_edge_letters", wrong)
        failed = [(r["check"], r["params"]["n"])
                  for suite in ("typeB-k1", "weyl") for r in run_suite(suite, 3)
                  if not r["result"]]
        assert failed == [
            ("weak-order-isomorphism", 2), ("weak-order-isomorphism", 3),
            ("chain-words-reduced", 2), ("flip-braid-correspondence", 2),
            ("chain-words-reduced", 3), ("flip-braid-correspondence", 3),
            ("swap-commutation-correspondence", 3)]

    def test_empty_chain_word_table_fails(self, monkeypatch):
        from bruhatb import weyl
        monkeypatch.setattr(weyl, "chain_words", lambda p: {})
        (rep,) = [r for r in run_suite("weyl", 2) if r["check"] == "chain-words-reduced"]
        assert rep["params"] == {"n": 2} and not rep["result"]
