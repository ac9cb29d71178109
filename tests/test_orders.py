"""Admissibility, inversion sets, flips, classes, and the flip posets."""

import itertools
import json
from math import factorial

import pytest

from bruhatb.core import enumerate_B, normalize_orbit, star
from bruhatb.orders import (
    FlipError,
    InadmissibleOrderError,
    TotalOrder,
    UnsupportedLevelError,
    admissible_orderings_filter,
    admissible_sequences,
    build_poset,
    canonical_form,
    chains_bijection_check,
    check_extrema,
    class_flip_candidates,
    class_members,
    commutes,
    element_key,
    enumerate_admissible,
    flip_candidates,
    inv_injectivity_check,
    inversion_set,
    is_admissible,
    maximal_chains,
    packet_flip,
    poset_comparable,
    poset_from_json_obj,
    poset_to_dot,
    poset_to_json,
    poset_to_json_obj,
    rho_max,
    rho_min,
)
from bruhatb.weyl import reduced_words_brute

A_CASES = [("A", 2, 1), ("A", 3, 1), ("A", 3, 2)]
B_CASES = [("B", 2, 1), ("B", 2, 2), ("B", 3, 1), ("B", 3, 2)]


def atuple(*vals):
    return tuple((v,) for v in vals)


class TestAdmissibility:
    def test_rho_min_and_max_admissible_everywhere(self):
        for family, n, k in A_CASES + B_CASES:
            assert is_admissible(rho_min(family, n, k))
            assert is_admissible(rho_max(family, n, k))

    def test_mixed_packet_orientation_rejected(self):
        assert not is_admissible(TotalOrder("B", 2, 1, (-2, -1, 2, 1)))

    def test_level1_type_a_vacuous(self):
        for p in itertools.permutations(atuple(1, 2, 3)):
            assert is_admissible(TotalOrder("A", 3, 1, p))

    def test_inadmissible_inversion_set_raises(self):
        with pytest.raises(InadmissibleOrderError):
            inversion_set(TotalOrder("B", 2, 1, (-2, -1, 2, 1)))


class TestInversionSet:
    def test_rho_min_empty(self):
        for family, n, k in A_CASES + B_CASES:
            assert inversion_set(rho_min(family, n, k)) == frozenset()

    def test_rho_max_full(self):
        from bruhatb.orders import _packet_table
        for family, n, k in A_CASES + B_CASES:
            full = frozenset(K for K, _ in _packet_table(family, n, k))
            assert inversion_set(rho_max(family, n, k)) == full

    def test_single_reversed_packet(self):
        got = inversion_set(TotalOrder("B", 2, 1, (-1, -2, 2, 1)))
        assert got == frozenset({normalize_orbit((-2, -1))})

    def test_packet_chains_follow_inversion_set(self):
        # each packet chain is monotone in rho: increasing exactly when its
        # label lies outside the inversion set
        from bruhatb.orders import _packet_table
        for rho in enumerate_admissible("B", 2, 1) + enumerate_admissible("B", 2, 2):
            inv = inversion_set(rho)
            pos = rho.positions
            for K, packet in _packet_table(rho.family, rho.n, rho.k):
                for chain in packet.components:
                    ps = [pos[e] for e in chain]
                    expected = sorted(ps) if K not in inv else sorted(ps, reverse=True)
                    assert ps == expected, (str(rho), K)


class TestFlipCandidates:
    def test_type_b_minimum(self):
        got = flip_candidates(rho_min("B", 2, 1))
        assert got == {normalize_orbit((-2, -1)), star((1,))}

    def test_type_a_adjacent_pairs(self):
        got = flip_candidates(TotalOrder("A", 3, 1, atuple(1, 2, 3)))
        assert got == {(1, 2), (2, 3)}

    def test_type_b_level2_minimum(self):
        assert flip_candidates(rho_min("B", 2, 2)) == {star((2, 1))}


class TestPacketFlip:
    def test_flip_star(self):
        got = packet_flip(TotalOrder("B", 2, 1, (-2, -1, 1, 2)), star((1,)))
        assert got.seq == (-2, 1, -1, 2)

    def test_flip_orbit_two_components(self):
        got = packet_flip(TotalOrder("B", 2, 1, (-2, -1, 1, 2)),
                          normalize_orbit((-2, -1)))
        assert got.seq == (-1, -2, 2, 1)

    def test_flip_type_a(self):
        got = packet_flip(TotalOrder("A", 3, 1, atuple(1, 2, 3)), (1, 2))
        assert got.seq == atuple(2, 1, 3)

    def test_flip_outside_candidates_rejected(self):
        with pytest.raises(FlipError):
            packet_flip(rho_min("B", 2, 1), star((2,)))

    def test_involution_and_inv_toggle(self):
        for family, n, k in A_CASES + B_CASES:
            for rho in enumerate_admissible(family, n, k):
                inv = inversion_set(rho)
                for K in flip_candidates(rho):
                    flipped = packet_flip(rho, K)
                    assert is_admissible(flipped)
                    assert K in flip_candidates(flipped)
                    assert packet_flip(flipped, K).seq == rho.seq
                    assert inversion_set(flipped) == inv ^ {K}

    def test_inv_constant_on_elementary_swaps(self):
        for family, n, k in [("A", 3, 2), ("B", 2, 2), ("B", 3, 2)]:
            for rho in enumerate_admissible(family, n, k):
                inv = inversion_set(rho)
                for i in range(len(rho.seq) - 1):
                    a, b = rho.seq[i], rho.seq[i + 1]
                    if commutes(a, b, family, n, k):
                        swapped = TotalOrder(
                            family, n, k,
                            rho.seq[:i] + (b, a) + rho.seq[i + 2:])
                        assert inversion_set(swapped) == inv


class TestCommutes:
    def test_disjoint_type_a_pairs_commute(self):
        assert commutes((1, 2), (3, 4), "A", 4, 2)
        assert not commutes((1, 2), (1, 3), "A", 4, 2)

    def test_type_b_disjoint_supports(self):
        assert commutes(normalize_orbit((-2, -1)), star((3,)), "B", 3, 2)
        assert not commutes(normalize_orbit((-2, -1)), star((2,)), "B", 3, 2)

    def test_type_b_level1_nothing_commutes(self):
        ground = enumerate_B(2, 1)
        for a, b in itertools.combinations(ground, 2):
            assert not commutes(a, b, "B", 2, 1)

    def test_same_element_rejected(self):
        with pytest.raises(ValueError):
            commutes((1, 2), (1, 2), "A", 3, 2)


class TestCanonicalForm:
    def test_idempotent(self):
        for family, n, k in A_CASES + B_CASES:
            r = canonical_form(rho_max(family, n, k))
            assert canonical_form(r.canon).canon.seq == r.canon.seq

    def test_singleton_class_is_fixed(self):
        # at type B level 1 nothing commutes, so every class is a singleton
        for rho in enumerate_admissible("B", 2, 1):
            assert canonical_form(rho).canon.seq == rho.seq
            assert class_members(rho) == [rho]

    def test_commuting_swap_same_canon(self):
        base = rho_min("B", 3, 2)
        i = base.seq.index(normalize_orbit((-2, -1)))
        assert base.seq[i + 1] == star((3,))
        swapped = TotalOrder("B", 3, 2,
                             base.seq[:i] + (base.seq[i + 1], base.seq[i])
                             + base.seq[i + 2:])
        assert canonical_form(swapped).canon.seq == \
            canonical_form(base).canon.seq

    def test_canon_equal_iff_same_class(self):
        for family, n, k in [("A", 3, 2), ("A", 4, 2), ("B", 2, 2), ("B", 3, 2)]:
            orders = enumerate_admissible(family, n, k)
            by_canon = {}
            for rho in orders:
                by_canon.setdefault(canonical_form(rho).canon.seq,
                                    set()).add(rho.seq)
            for rho in orders:
                members = {m.seq for m in class_members(rho)}
                assert members == by_canon[canonical_form(rho).canon.seq]

    def test_class_flip_candidates_union(self):
        r = canonical_form(rho_min("B", 2, 1))
        assert class_flip_candidates(r) == {normalize_orbit((-2, -1)),
                                            star((1,))}
        r = canonical_form(rho_min("B", 2, 2))
        assert class_flip_candidates(r) == {star((2, 1))}

    def test_class_flip_candidates_lex_initial_packet_type_a(self):
        r = canonical_form(rho_min("A", 4, 2))
        assert (1, 2, 3) in class_flip_candidates(r)


class TestEnumerateAdmissible:
    @pytest.mark.parametrize("family,n,k",
                             [("B", 2, 1), ("B", 2, 2), ("A", 3, 2),
                              ("A", 3, 1), ("B", 2, 3), ("A", 4, 2),
                              ("B", 3, 1)])
    def test_matches_permutation_filter(self, family, n, k):
        got = {t.seq for t in enumerate_admissible(family, n, k)}
        expected = {t.seq for t in admissible_orderings_filter(family, n, k)}
        assert got == expected

    def test_sequences_match_permutation_filter(self):
        # a ground and packets of no family: one packet of two components
        ground = ("a", "b", "c", "d", "e")
        packets = [(("a", "b", "c"),), (("c", "d"), ("b", "e"))]
        got = admissible_sequences(ground, packets)
        expected = []
        for perm in itertools.permutations(ground):
            pos = {e: i for i, e in enumerate(perm)}
            if all(len({pos[u] < pos[v] for chain in chains
                        for u, v in zip(chain, chain[1:])}) == 1
                   for chains in packets):
                expected.append(perm)
        # orientations (fwd, fwd) 3, (fwd, rev) 8, (rev, fwd) 8, (rev, rev) 3
        assert len(got) == len(set(got)) == 22
        assert set(got) == set(expected)

    def test_counts(self):
        assert len(enumerate_admissible("B", 2, 2)) == 2
        assert len(enumerate_admissible("B", 3, 2)) == 42
        assert len(enumerate_admissible("A", 4, 2)) == 16
        assert len(enumerate_admissible("B", 2, 1)) == 8
        assert len(enumerate_admissible("B", 3, 1)) == 48

    def test_rank4_level2_count_is_reduced_word_count(self):
        # level-2 admissible orderings of J_4 are the maximal chains of the
        # weak order on B_4, i.e. the reduced words of its longest element
        assert len(enumerate_admissible("B", 4, 2)) == \
            len(reduced_words_brute("B", 4)) == 24024


class TestBuildPoset:
    def test_two_node_poset(self):
        p = build_poset("B", 2, 2)
        assert len(p.nodes) == 2 and len(p.edges) == 1
        assert p.edges[0][2] == star((2, 1))

    def test_type_b_level1_counts(self):
        assert len(build_poset("B", 2, 1).nodes) == 8
        assert len(build_poset("B", 3, 1).nodes) == 48

    def test_type_a_level1_counts(self):
        for n in (2, 3, 4):
            assert len(build_poset("A", n, 1).nodes) == factorial(n)

    def test_edges_raise_rank_and_toggle_inv(self):
        for family, n, k in [("A", 3, 2), ("B", 2, 2), ("B", 3, 2), ("B", 2, 1)]:
            p = build_poset(family, n, k)
            for src, dst, K in p.edges:
                assert p.nodes[dst].rank == p.nodes[src].rank + 1
                assert p.nodes[dst].inv == p.nodes[src].inv | {K}
                assert K not in p.nodes[src].inv

    def test_acyclic_by_rank(self):
        p = build_poset("B", 3, 2)
        assert all(p.nodes[s].rank < p.nodes[d].rank for s, d, _ in p.edges)

    def test_unsupported_levels(self):
        with pytest.raises(UnsupportedLevelError):
            build_poset("B", 2, 3)
        with pytest.raises(ValueError):
            build_poset("A", 3, 4)

    def test_node_budget(self):
        from bruhatb.orders import PosetOverflowError
        with pytest.raises(PosetOverflowError):
            build_poset("B", 3, 1, max_nodes=10)


class TestExtremaAndChains:
    @pytest.mark.parametrize("family,n,k",
                             [("B", 2, 2), ("B", 3, 2), ("A", 4, 2),
                              ("A", 3, 1), ("B", 2, 1)])
    def test_extrema_all_true(self, family, n, k):
        rep = check_extrema(build_poset(family, n, k))
        assert rep.unique_min and rep.unique_max and rep.graded

    def test_chains_b21_are_standard_order_and_reverse(self):
        p = build_poset("B", 2, 1)
        chains = maximal_chains(p)
        assert len(chains) == 2
        std = tuple(enumerate_B(2, 2))
        assert chains[0] == std
        assert set(chains) == {std, std[::-1]}

    def test_single_chain_b22(self):
        assert maximal_chains(build_poset("B", 2, 2)) == [(star((2, 1)),)]

    def test_two_chains_a31(self):
        assert len(maximal_chains(build_poset("A", 3, 1))) == 2

    @pytest.mark.parametrize("family,n,k",
                             [("A", 4, 1), ("B", 3, 1), ("A", 5, 2),
                              ("B", 3, 2), ("A", 6, 4)])
    def test_chains_match_recursive_reference(self, family, n, k):
        p = build_poset(family, n, k)
        out_edges = {}
        for s, d, K in p.edges:
            out_edges.setdefault(s, []).append((K, d))
        top = max(p.nodes, key=lambda key: p.nodes[key].rank)

        def paths(key):
            if key == top:
                return [()]
            return [(K,) + rest
                    for K, d in sorted(out_edges.get(key, []),
                                       key=lambda e: element_key(e[0]))
                    for rest in paths(d)]

        assert maximal_chains(p) == paths(p.min_key)

    @pytest.mark.parametrize("family,n,k",
                             [("B", 2, 1), ("B", 2, 2), ("B", 3, 2),
                              ("A", 3, 1), ("A", 4, 2)])
    def test_chain_label_bijection(self, family, n, k):
        assert chains_bijection_check(build_poset(family, n, k))

    @pytest.mark.parametrize("family,n,k",
                             [("B", 2, 1), ("B", 3, 1), ("B", 2, 2),
                              ("B", 3, 2), ("A", 4, 2)])
    def test_inversion_sets_injective(self, family, n, k):
        assert inv_injectivity_check(build_poset(family, n, k))


class TestExport:
    def test_json_round_trip(self):
        p = build_poset("B", 2, 1)
        obj = json.loads(poset_to_json(p))
        assert poset_from_json_obj(obj) == poset_comparable(p)

    def test_json_counts(self):
        obj = poset_to_json_obj(build_poset("B", 2, 1))
        assert len(obj["nodes"]) == 8 and len(obj["edges"]) == 8

    def test_dot_is_deterministic(self):
        a = poset_to_dot(build_poset("B", 2, 2))
        b = poset_to_dot(build_poset("B", 2, 2))
        assert a == b
        assert a.count("->") == 1 and 'label="[2,1,*]"' in a

    def test_single_node_poset_exports(self):
        p = build_poset("A", 1, 1)
        assert len(p.nodes) == 1 and not p.edges
        assert poset_to_dot(p).count("->") == 0

    def test_dot_node_count(self):
        dot = poset_to_dot(build_poset("B", 2, 2))
        assert dot.count("[label=\"rank") == 2
