"""Crossing, blocking, relation graphs, and the obstruction case machinery."""

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
    rho_min,
)
from bruhatb.verify import (
    CASE_IDS,
    _case_triple,
    CycleError,
    RelationGraph,
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
    linear_extensions,
    linear_extensions_filter,
    make_case,
    minimal_chain,
    nonmaximal_has_flip,
    standard_cases,
    transitive_union,
)


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
            below = dependence_order(rho)
            arcs = tuple((a, b) for j, b in enumerate(rho.seq)
                         for i, a in enumerate(rho.seq) if below[j] >> i & 1)
            extensions = linear_extensions(RelationGraph(rho.seq, arcs))
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


class TestRelationGraphs:
    def test_union_derives_transitivity(self):
        g1 = RelationGraph.from_chain(("a", "b"))
        g2 = RelationGraph.from_chain(("b", "c"))
        res = transitive_union([g1, g2])
        assert res.cycle is None
        assert linear_extensions(res.poset) == [("a", "b", "c")]

    def test_union_reports_cycle(self):
        g1 = RelationGraph.from_chain(("a", "b"))
        g2 = RelationGraph.from_chain(("a", "b"), forward=False)
        res = transitive_union([g1, g2])
        assert res.poset is None
        assert set(res.cycle) == {"a", "b"}

    def test_inversion_relation_is_acyclic_and_extended(self):
        # orienting each packet by its inversion status yields a partial
        # order that the ordering itself extends
        for rho in enumerate_admissible("B", 2, 1) + enumerate_admissible("B", 2, 2):
            inv = inversion_set(rho)
            rels = []
            from bruhatb.orders import _packet_table
            for K, packet in _packet_table(rho.family, rho.n, rho.k):
                for chain in packet.components:
                    rels.append(RelationGraph.from_chain(chain, K not in inv))
            res = transitive_union(rels)
            assert res.cycle is None
            pos = rho.positions
            assert all(pos[u] < pos[v] for u, v in res.poset.arcs)

    def test_extension_counts_vs_filter(self):
        graphs = [
            RelationGraph(("a", "b"), ()),
            RelationGraph.from_chain(("a", "b", "c")),
            RelationGraph.from_chain(packet_B(star((2, 1))).components[0]),
            RelationGraph(("a", "b", "c", "d"),
                          (("a", "b"), ("c", "d"))),
            RelationGraph(("a", "b", "c", "d", "e"),
                          (("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"))),
        ]
        expected = [2, 1, 1, 6, 4]
        for g, count in zip(graphs, expected):
            exts = linear_extensions(g)
            assert len(exts) == count
            assert sorted(exts) == sorted(linear_extensions_filter(g))

    def test_cyclic_extension_rejected(self):
        g = RelationGraph(("a", "b"), (("a", "b"), ("b", "a")))
        with pytest.raises(CycleError):
            linear_extensions(g)


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
        J3 = [v for v in range(-3, 4) if v != 0]
        total = 0
        for K in enumerate_B(3, 3):
            ids = [c for c in CASE_IDS
                   if c.startswith("orbit" if K.kind == "orbit" else "star")]
            for cid in ids:
                for x in J3:
                    try:
                        case = make_case(cid, K, x, 3)
                    except ValueError:
                        continue
                    rep = case_report(case)
                    total += 1
                    assert rep.ok and rep.extensions > 0, (cid, str(K), x)
        assert total == 48

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
