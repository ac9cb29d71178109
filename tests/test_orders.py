"""Admissibility, inversion sets, flips, classes, and the flip posets."""

import ast
import dataclasses
import functools
import gc
import hashlib
import inspect
import itertools
import json
import weakref
from math import factorial, prod

import pytest

from bruhatb.core import (
    enumerate_A,
    enumerate_B,
    format_element,
    normalize_orbit,
    packet_A,
    packet_B,
    standard_key,
    star,
)
from bruhatb.orders import (
    DEFAULT_MAX_NODES,
    BruhatPoset,
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
    count_chains,
    dependence_order,
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
from bruhatb.orders import _coding, _down, _flip_span, _heap_bfs, _ordering_bfs
from bruhatb.weyl import chain_words, reduced_words_brute

A_CASES = [("A", 2, 1), ("A", 3, 1), ("A", 3, 2)]
B_CASES = [("B", 2, 1), ("B", 2, 2), ("B", 3, 1), ("B", 3, 2)]


def atuple(*vals):
    return tuple((v,) for v in vals)


# An element-level reference for the packet walks, built from core.packet_A
# and core.packet_B and from positions, sharing nothing with orders._coding.

def ref_packets(family, n, k) -> dict:
    """Each level-(k+1) element K -> the component chains of its packet."""
    if family == "A":
        upper = enumerate_A(n, k + 1) if k < n else []
        return {K: packet_A(K).components for K in upper}
    return {K: packet_B(K).components for K in enumerate_B(n, k + 1)}


def ref_reversed(rho, chains):
    """True when every chain runs backwards in rho, False when every chain
    runs forwards, None when the packet is inconsistently ordered."""
    pos = {e: i for i, e in enumerate(rho.seq)}
    ways = {pos[a] > pos[b] for chain in chains for a, b in zip(chain, chain[1:])}
    return ways.pop() if len(ways) == 1 else None


def ref_flippable(rho, chains) -> bool:
    """Whether the slots of each chain spread over exactly len(chain) slots."""
    pos = {e: i for i, e in enumerate(rho.seq)}
    return all(max(pos[e] for e in c) - min(pos[e] for e in c) == len(c) - 1
               for c in chains)


def ref_flip(rho, chains):
    """rho with each chain's slots reversed in place, or None when not flippable."""
    if not ref_flippable(rho, chains):
        return None
    pos = {e: i for i, e in enumerate(rho.seq)}
    seq = list(rho.seq)
    for chain in chains:
        slots = sorted(pos[e] for e in chain)
        for slot, e in zip(slots, sorted(chain, key=pos.get, reverse=True)):
            seq[slot] = e
    return TotalOrder(rho.family, rho.n, rho.k, tuple(seq))


@pytest.mark.parametrize("family,n,k",
                         [("A", 3, 1), ("A", 4, 1), ("B", 2, 1), ("B", 2, 2),
                          ("B", 3, 1)])
def test_walks_match_element_reference(family, n, k):
    # every permutation, admissible or not: the walks answer as the reference
    packets = ref_packets(family, n, k)
    seen = {"admissible": 0, "inadmissible": 0, "flips": 0, "refused": 0}
    for perm in itertools.permutations(rho_min(family, n, k).seq):
        rho = TotalOrder(family, n, k, perm)
        ways = {K: ref_reversed(rho, chains) for K, chains in packets.items()}
        admissible = None not in ways.values()
        seen["admissible" if admissible else "inadmissible"] += 1
        assert is_admissible(rho) == admissible
        if admissible:
            assert inversion_set(rho) == {K for K, back in ways.items() if back}
        else:
            with pytest.raises(InadmissibleOrderError):
                inversion_set(rho)
        assert flip_candidates(rho) == {K for K, chains in packets.items()
                                        if ref_flippable(rho, chains)}
        for K, chains in packets.items():
            expected = ref_flip(rho, chains)
            if expected is None:
                seen["refused"] += 1
                with pytest.raises(FlipError):
                    packet_flip(rho, K)
            else:
                seen["flips"] += 1
                assert packet_flip(rho, K) == expected
    assert seen["admissible"] and seen["flips"]
    assert seen["inadmissible"] or family == "A"    # type A level 1 is vacuous
    assert seen["refused"] or (family, n, k) == ("B", 2, 2)     # one packet: all


class TestTotalOrder:
    def test_list_built_order_is_its_tuple_twin(self):
        rho = TotalOrder("B", 2, 1, [-2, -1, 1, 2])
        twin = TotalOrder("B", 2, 1, (-2, -1, 1, 2))
        assert rho.seq == twin.seq and isinstance(rho.seq, tuple)
        assert rho == twin and hash(rho) == hash(twin) and len({rho, twin}) == 1
        assert canonical_form(rho).canon.seq == rho.seq

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError, match="not a permutation of the ground set"):
            TotalOrder("B", 2, 1, [-2, -1, 1, 1])


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
        for family, n, k in A_CASES + B_CASES:
            full = frozenset(ref_packets(family, n, k))
            assert inversion_set(rho_max(family, n, k)) == full

    def test_single_reversed_packet(self):
        got = inversion_set(TotalOrder("B", 2, 1, (-1, -2, 2, 1)))
        assert got == frozenset({normalize_orbit((-2, -1))})

    def test_packet_chains_follow_inversion_set(self):
        # each packet chain is monotone in rho: increasing exactly when its
        # label lies outside the inversion set
        for rho in enumerate_admissible("B", 2, 1) + enumerate_admissible("B", 2, 2):
            inv = inversion_set(rho)
            pos = rho.positions
            for K, chains in ref_packets(rho.family, rho.n, rho.k).items():
                for chain in chains:
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

    def test_element_outside_ground_set_rejected(self):
        outside, inside = normalize_orbit((-3, 1)), star((1,))
        for a, b in [(outside, inside), (inside, outside)]:
            with pytest.raises(ValueError, match=r"\[-3,1\] is not in the ground set"):
                commutes(a, b, "B", 2, 2)


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


def _by_canon(family, n, k) -> dict:
    """canonical_form key -> (class_members, class_flip_candidates), per class."""
    out = {}
    for rho in enumerate_admissible(family, n, k):
        r = canonical_form(rho)
        if r.canon.seq not in out:
            out[r.canon.seq] = (class_members(rho), class_flip_candidates(r))
    return out


class TestHeapFastPaths:
    """build_poset's heap lookup, resumed masks and span flips against the
    canonical-form, full-walk and packet_flip oracles."""

    @pytest.mark.parametrize("family,n,k", [("A", 5, 2), ("B", 3, 2)])
    def test_heap_equal_iff_canonical_equal(self, family, n, k):
        heap_to_canon, canon_to_heap = {}, {}
        for rho in enumerate_admissible(family, n, k):
            heap = tuple(dependence_order(rho))
            canon = canonical_form(rho).canon.seq
            assert heap_to_canon.setdefault(heap, canon) == canon
            assert canon_to_heap.setdefault(canon, heap) == heap
        assert len(heap_to_canon) > 1

    @pytest.mark.parametrize("family,n,k", [("A", 5, 2), ("B", 3, 2)])
    def test_resumed_down_matches_full_walk(self, family, n, k):
        coding = _coding(family, n, k)
        for rho in enumerate_admissible(family, n, k):
            seq = [coding.code[e] for e in rho.seq]
            full = _down(coding.partners, seq)
            for start in range(len(seq) + 1):
                # masks of a sequence with the same prefix and another suffix
                known = _down(coding.partners, seq[:start] + seq[start:][::-1])
                assert _down(coding.partners, seq, start, known) == full

    @pytest.mark.parametrize("family,n,k", [("A", 5, 2), ("B", 3, 2)])
    def test_span_flip_matches_packet_flip(self, family, n, k):
        coding = _coding(family, n, k)
        packets = dict(coding.labels)
        chains = ref_packets(family, n, k)
        classes = _by_canon(family, n, k)
        spread = 0
        for rho in enumerate_admissible(family, n, k):
            members, flips = classes[canonical_form(rho).canon.seq]
            seq = [coding.code[e] for e in rho.seq]
            pos = [0] * len(seq)
            for slot, c in enumerate(seq):
                pos[c] = slot
            below = _down(coding.partners, seq)
            above = _down(coding.partners, seq[::-1])
            for K in flips:
                flipped = next(filter(None, (ref_flip(m, chains[K]) for m in members)))
                expected = dependence_order(flipped)
                member, first, last = _flip_span(seq, pos, below, packets[K])
                assert sorted(member) == sorted(seq)
                assert member[:first] == seq[:first]
                assert member[last + 1:] == seq[last + 1:]
                assert _down(coding.partners, member) == expected
                assert _down(coding.partners, member, first, below) == expected
                assert (_down(coding.partners, member[::-1], len(seq) - 1 - last, above)
                        == _down(coding.partners, member[::-1]))
                spread += last - first + 1 > sum(len(c) for c, _m in packets[K])
        assert spread > 0       # some flip moved elements between a component's ends

    def test_build_stays_off_the_oracles(self, monkeypatch):
        from bruhatb import orders
        configs = [("B", 3, 2), ("A", 5, 2), ("B", 3, 1)]
        expected = [poset_comparable(build_poset(*cfg)) for cfg in configs]

        def oracle(*_args):
            raise AssertionError("build_poset called an oracle")
        for name in ("class_members", "canonical_form", "flip_candidates"):
            monkeypatch.setattr(orders, name, oracle)
        assert [poset_comparable(orders.build_poset(*cfg)) for cfg in configs] == expected
        assert [len(p["nodes"]) for p in expected] == [14, 62, 48]

    def test_walks_stay_off_positions(self, monkeypatch):
        # the packet walks, the crossing scan, the chain checks and the chain
        # words run on codes; TotalOrder.positions serves only the oracles
        from bruhatb.verify import crosses, crosses_oracle
        from bruhatb.weyl import chain_to_word, iso_check

        def run():
            out = []
            for cfg in [("B", 3, 1), ("B", 3, 2)]:
                p = build_poset(*cfg)
                seqs = [rho.seq for rho in enumerate_admissible(*cfg)]
                seqs.append(seqs[0][1::-1] + seqs[0][2:])   # inadmissible
                for seq in seqs:
                    rho = TotalOrder(*cfg, seq)
                    try:
                        inv = inversion_set(rho)
                    except InadmissibleOrderError:
                        inv = None
                    cands = flip_candidates(rho)
                    out.append((is_admissible(rho), inv, cands,
                                [packet_flip(rho, K).seq for K in sorted(cands, key=str)],
                                [crosses(rho, a, b)
                                 for a, b in itertools.combinations(seq, 2)]))
                out.append(chains_bijection_check(p))
                if cfg[2] == 1:
                    chains = maximal_chains(p)
                    out.append([chain_to_word(c, "B", 3).letters for c in chains])
            out.append(iso_check(3))
            return out

        expected = run()
        assert expected[-1] is True
        assert [r[:2] for r in expected if isinstance(r, tuple) and not r[0]] == \
            [(False, None)] * 2

        def positions(_rho):
            raise AssertionError("a packet walk read TotalOrder.positions")
        monkeypatch.setattr(TotalOrder, "positions", property(positions))
        assert run() == expected
        with pytest.raises(AssertionError, match="read TotalOrder.positions"):
            crosses_oracle(rho_min("B", 3, 1), -1, 1)


class TestBuildPaths:
    """build_poset skips the heaps when every class is a single ordering; the
    heap BFS is the reference for that path."""

    SINGLETON = ([("A", n, 1) for n in range(2, 7)] + [("B", n, 1) for n in range(1, 5)]
                 + [("A", 3, 2), ("A", 4, 3), ("A", 5, 4), ("B", 2, 2)])

    @staticmethod
    def run(builder, family, n, k):
        poset = BruhatPoset(family, n, k)
        builder(poset, _coding(family, n, k), DEFAULT_MAX_NODES)
        return poset

    @pytest.mark.parametrize("family,n,k", SINGLETON)
    def test_ordering_bfs_matches_heap_bfs(self, family, n, k):
        coding = _coding(family, n, k)
        full = (1 << len(coding.ground)) - 1
        assert all(m | 1 << c == full for c, m in enumerate(coding.partners))
        heaps = self.run(_heap_bfs, family, n, k)
        orderings = self.run(_ordering_bfs, family, n, k)
        assert orderings.nodes == heaps.nodes
        assert orderings.edges == heaps.edges
        assert len(heaps.edges) >= 1

    def test_path_follows_commuting_pairs(self, monkeypatch):
        from bruhatb import orders

        def not_here(*_args):
            raise AssertionError("build_poset took the wrong path")
        with monkeypatch.context() as m:
            m.setattr(orders, "_ordering_bfs", not_here)
            assert [len(build_poset(*cfg).nodes)
                    for cfg in [("B", 3, 2), ("A", 5, 2)]] == [14, 62]
        monkeypatch.setattr(orders, "_heap_bfs", not_here)
        assert [len(build_poset(*cfg).nodes)
                for cfg in [("A", 5, 1), ("B", 3, 1), ("B", 2, 2)]] == [120, 48, 2]


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
        # codes of no family: a 3-chain packet and one packet of two components
        chains = [((0, 1, 2),), ((2, 3), (1, 4))]
        packets = [tuple((c, sum(1 << e for e in c)) for c in comps)
                   for comps in chains]
        got = admissible_sequences(range(5), packets)
        expected = []
        for perm in itertools.permutations(range(5)):
            pos = {e: i for i, e in enumerate(perm)}
            if all(len({pos[u] < pos[v] for chain in comps
                        for u, v in zip(chain, chain[1:])}) == 1
                   for comps in chains):
                expected.append(perm)
        # orientations (fwd, fwd) 3, (fwd, rev) 8, (rev, fwd) 8, (rev, rev) 3
        assert len(got) == len(set(got)) == 22
        assert got == expected      # listed in backtracking order over range(5)

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
        assert len(p.nodes) == 2 and p.edges == [(0, 1, 0)]
        assert _coding("B", 2, 2).labels[0][0] == star((2, 1))

    def test_type_b_level1_counts(self):
        assert len(build_poset("B", 2, 1).nodes) == 8
        assert len(build_poset("B", 3, 1).nodes) == 48

    def test_type_a_level1_counts(self):
        for n in (2, 3, 4):
            assert len(build_poset("A", n, 1).nodes) == factorial(n)

    # The level-2 classes are the commutation classes of the reduced words of
    # the longest element, derived here with no flip: words joined by swaps of
    # adjacent commuting letters (|a - b| >= 2), merged by union-find.  B(4,2)
    # and A(5,2) are the benchmark's pinned 330 and 62 nodes.
    @pytest.mark.parametrize("family,n,classes", [("B", 2, 2), ("B", 3, 14), ("B", 4, 330),
                                                  ("A", 4, 8), ("A", 5, 62)])
    def test_level2_nodes_are_commutation_classes(self, family, n, classes):
        index = {w: i for i, w in enumerate(sorted(reduced_words_brute(family, n)))}
        parent = list(range(len(index)))

        def root(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i
        for w, i in index.items():
            for t in range(len(w) - 1):
                if abs(w[t] - w[t + 1]) >= 2:
                    parent[root(i)] = root(index[w[:t] + (w[t + 1], w[t]) + w[t + 2:]])
        assert len({root(i) for i in parent}) == classes
        assert len(build_poset(family, n, 2).nodes) == classes

    def test_edges_raise_rank_and_toggle_inv(self):
        for family, n, k in [("A", 3, 2), ("B", 2, 2), ("B", 2, 1),
                             *TestExport.GOLDEN_JSON]:
            p = build_poset(family, n, k)
            for src, dst, c in p.edges:
                assert p.nodes[dst].inv == p.nodes[src].inv | 1 << c
                assert not p.nodes[src].inv >> c & 1
                assert p.nodes[dst].rank == p.nodes[src].rank + 1

    def test_acyclic_by_rank(self):
        p = build_poset("B", 3, 2)
        assert all(p.nodes[s].rank < p.nodes[d].rank for s, d, _ in p.edges)

    def test_unsupported_levels(self):
        with pytest.raises(UnsupportedLevelError):
            build_poset("B", 2, 3)
        with pytest.raises(ValueError):
            build_poset("A", 3, 4)

    def test_node_budget(self, monkeypatch):
        from bruhatb.orders import PosetOverflowError
        monkeypatch.setenv("BRUHAT_MAX_NODES", "10")
        with pytest.raises(PosetOverflowError):
            build_poset("B", 3, 1)

    @pytest.mark.parametrize("budget", ["abc", "0", "-5", ""])
    def test_node_budget_must_be_positive(self, budget, monkeypatch):
        # "0" used to build the 1-node A(2,2), and "-5" reported "exceeded -5 nodes"
        monkeypatch.setenv("BRUHAT_MAX_NODES", budget)
        with pytest.raises(ValueError, match=f"BRUHAT_MAX_NODES must be a positive "
                                             f"integer, got '{budget}'"):
            build_poset("A", 2, 2)

    def test_node_budget_names_rank(self, monkeypatch):
        from bruhatb.orders import PosetOverflowError
        # the BFS meets classes in rank order, and ranks 0-2 of B(4,2) hold
        # 1 + 3 + 6 = 10 classes, so the 11th is at rank 3
        monkeypatch.setenv("BRUHAT_MAX_NODES", "10")
        with pytest.raises(PosetOverflowError, match=r"exceeded 10 nodes .* at rank 3$"):
            build_poset("B", 4, 2)

    def test_node_budget_names_rank_without_heaps(self, monkeypatch):
        from bruhatb.orders import PosetOverflowError
        # the classes of B(3,1) are single orderings, and ranks 0-3 of B_3
        # hold 1 + 3 + 5 + 7 classes, so the 11th is at rank 3
        monkeypatch.setenv("BRUHAT_MAX_NODES", "10")
        with pytest.raises(PosetOverflowError, match=r"exceeded 10 nodes .* at rank 3$"):
            build_poset("B", 3, 1)


class TestPosetCertificates:
    """The certificates fail on copies of built posets with one fault."""

    def test_build_makes_no_element_nodes(self, monkeypatch):
        made = []
        init = TotalOrder.__post_init__
        monkeypatch.setattr(TotalOrder, "__post_init__",
                            lambda self: made.append(self) or init(self))
        p = build_poset("B", 3, 2)
        assert len(made) <= 1
        assert [f.name for f in dataclasses.fields(p.nodes[0])] == ["canon", "inv"]
        assert all(type(nd.inv) is int and all(type(c) is int for c in nd.canon)
                   for nd in p.nodes)
        assert p.nodes[0].canon == tuple(range(len(p.nodes[0].canon)))

    def test_duplicated_mask_is_not_injective(self):
        p = build_poset("B", 3, 2)
        nodes = list(p.nodes)
        nodes[2] = dataclasses.replace(nodes[2], inv=nodes[1].inv)
        assert inv_injectivity_check(p)
        assert not inv_injectivity_check(dataclasses.replace(p, nodes=nodes))

    def test_edge_label_set_in_source_is_not_graded(self):
        p = build_poset("B", 3, 2)
        edges = list(p.edges)
        j = next(j for j, (s, _d, _c) in enumerate(edges) if p.nodes[s].inv)
        s, d, _c = edges[j]
        edges[j] = (s, d, p.nodes[s].inv.bit_length() - 1)
        rep = check_extrema(dataclasses.replace(p, edges=edges))
        assert not rep.graded and rep.unique_min and rep.unique_max

    def test_second_empty_mask_is_not_unique_min(self):
        p = build_poset("B", 3, 2)
        nodes = list(p.nodes)
        nodes[1] = dataclasses.replace(nodes[1], inv=0)
        rep = check_extrema(dataclasses.replace(p, nodes=nodes))
        assert not rep.unique_min and rep.unique_max


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

    # The maximal chains of A(n,1) and B(n,1) are the reduced words of the
    # longest element, which the hook-length formula counts as standard Young
    # tableaux: of the staircase (n-1, ..., 1) for S_n (Stanley, European J.
    # Combin. 5, 1984) and of the n x n square for B_n (Haiman, Discrete
    # Math. 99, 1992).
    LEVEL1_CHAINS = {("A", 3): 2, ("A", 4): 16, ("A", 5): 768, ("A", 6): 292864,
                     ("B", 2): 2, ("B", 3): 42, ("B", 4): 24024,
                     ("B", 5): 701149020, ("A", 7): 1100742656}
    LISTED = 292864     # the largest count that maximal_chains also lists here

    @pytest.mark.parametrize("family,n", list(LEVEL1_CHAINS))
    def test_level1_chains_count_standard_tableaux(self, family, n):
        shape = list(range(n - 1, 0, -1)) if family == "A" else [n] * n
        cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = prod(shape[i] - j + cols[j] - i - 1
                     for i in range(len(shape)) for j in range(shape[i]))
        expected = self.LEVEL1_CHAINS[family, n]
        assert factorial(sum(shape)) // hooks == expected
        p = build_poset(family, n, 1)
        assert count_chains(p) == expected
        assert chains_bijection_check(p)    # certified also where none is listed
        if expected <= self.LISTED:
            assert len(maximal_chains(p)) == expected

    # the chains meet at rank R // 2 of the top rank R: A(3,3) and B(2,2)
    # (R = 0, 1) have no walk below it; the rest have odd and even R up to 16
    @pytest.mark.parametrize("family,n,k",
                             [("A", 3, 3), ("B", 2, 2), ("A", 3, 1),
                              ("A", 4, 1), ("B", 3, 1), ("A", 5, 2),
                              ("B", 3, 2), ("A", 6, 4), ("B", 4, 1)])
    def test_chains_match_recursive_reference(self, family, n, k):
        p = build_poset(family, n, k)
        out_edges = {}
        labels = _coding(family, n, k).labels
        for s, d, c in p.edges:
            out_edges.setdefault(s, []).append((labels[c][0], d))
        top = max(range(len(p.nodes)), key=lambda i: p.nodes[i].rank)
        # labels in standard order: type A subsets lexicographically
        label_key = (lambda K: K) if family == "A" else standard_key

        def paths(key):
            if key == top:
                return [()]
            return [(K,) + rest
                    for K, d in sorted(out_edges.get(key, []),
                                       key=lambda e: label_key(e[0]))
                    for rest in paths(d)]

        assert p.nodes[0].inv == 0
        assert maximal_chains(p) == paths(0)

    # sha256 of the `bruhatb chains` body, one chain per line, pinned from
    # the depth-first listing that preceded the middle-rank meet
    GOLDEN_CHAINS = {
        ("A", 6, 1): (292864, "f1da0dac215c68412827652af5ee7ede731c33b8a335d888efdb5e0ec3921a6d"),
        ("B", 4, 1): (24024, "ee46a373c3df44cdc4545f41e2b9f30c61085cac1a2e78f89f7b5d9c8ec86a72"),
        ("A", 5, 2): (112, "c0fd181bac4e7d10f392ca717acdf0acdc626795ea5d66c843f7cc91f2195919"),
        ("A", 6, 4): (2, "c34ba0f37a96ed2b4e385a69fe416a8171eaa2eafbca9913fcb27ec7c5141292"),
        ("B", 3, 2): (2, "40cfc9fff9d9e5ccb7ad7744664e09a9daedf4f53474adafd80e58b5a0672018"),
        ("B", 3, 1): (42, "8211c79c387919e6c429212eed15ff9054369f40c5378ca1a5c69a56d99d2651"),
    }

    @pytest.mark.parametrize("family,n,k", list(GOLDEN_CHAINS))
    def test_golden_chains(self, family, n, k):
        p = build_poset(family, n, k)
        chains = maximal_chains(p)
        name = {K: format_element(K) for c in chains for K in c}
        text = "\n".join(" ".join(map(name.__getitem__, c)) for c in chains)
        assert (len(chains), hashlib.sha256(text.encode()).hexdigest()) == \
            self.GOLDEN_CHAINS[family, n, k]

    @pytest.mark.parametrize("family,n,k",
                             [("B", 2, 1), ("B", 2, 2), ("B", 3, 2),
                              ("A", 3, 1), ("A", 4, 2), ("A", 2, 2), ("A", 3, 3)])
    def test_chain_label_bijection(self, family, n, k):
        # at k = n in type A: one class, one empty chain, and one (empty)
        # admissible ordering of the empty level-(n+1) ground set
        p = build_poset(family, n, k)
        assert chains_bijection_check(p)
        # the reference: the listed chains, as label codes, are each
        # admissible ordering one level up, once each
        coding = _coding(family, n, k)
        upper = _coding(family, n, k + 1).labels if coding.labels else ()
        listed = [tuple(coding.label_code[K] for K in c) for c in maximal_chains(p)]
        assert len(set(listed)) == len(listed) == count_chains(p)
        assert set(listed) == set(admissible_sequences(
            range(len(coding.labels)), [comps for _K, comps in upper]))

    @pytest.mark.parametrize("family,n,k", [("B", 3, 2), ("A", 4, 2)])
    def test_chain_label_bijection_lists_no_ordering(self, family, n, k, monkeypatch):
        from bruhatb import orders

        def listed(*args):
            raise AssertionError("the certificate listed or counted orderings")
        monkeypatch.setattr(orders, "admissible_sequences", listed)
        monkeypatch.setattr(orders, "count_chains", listed)
        assert chains_bijection_check(build_poset(family, n, k))

    def test_chain_label_bijection_beyond_listing(self):
        # A(7,3)'s chains are far beyond any listing.  The admissible orderings
        # of the 35 4-subsets of [7], counted without the poset by their placed
        # sets: a 4-subset comes next when, in each 5-subset's packet (its
        # 4-subsets in lexicographic order) that holds it, the placed ones are
        # exactly those before it or exactly those after it
        labels = list(itertools.combinations(range(1, 8), 4))
        packets = {L: [] for L in labels}
        for K in itertools.combinations(range(1, 8), 5):
            chain = list(itertools.combinations(K, 4))
            for i, L in enumerate(chain):
                packets[L].append((set(chain), set(chain[:i]), set(chain[i + 1:])))

        @functools.cache
        def orderings(placed):
            if len(placed) == len(labels):
                return 1
            return sum(orderings(placed | {L}) for L in labels if L not in placed
                       and all(placed & chain in (before, after)
                               for chain, before, after in packets[L]))
        assert orderings(frozenset()) == 386912033825500
        p = build_poset("A", 7, 3)
        assert count_chains(p) == 386912033825500
        assert chains_bijection_check(p)

    @pytest.mark.parametrize("family,n,k", A_CASES + B_CASES + [("A", 7, 3), ("B", 5, 2)])
    def test_certified_packets_are_single_chains(self, family, n, k):
        # the certificate reads no packet orientation: one level above the
        # labels, every packet is one chain (two components occur only at level 2)
        assert all(len(comps) == 1 for _K, comps in _coding(family, n, k + 1).labels)

    @pytest.mark.parametrize("family,n,k", A_CASES + B_CASES + [("A", 4, 2)])
    def test_label_index_is_upper_code(self, family, n, k):
        # a chain's label indices are the codes of a level-(k+1) ordering
        labels = tuple(K for K, _comps in _coding(family, n, k).labels)
        assert labels == tuple(ref_packets(family, n, k))
        if labels:
            assert labels == _coding(family, n, k + 1).ground

    @pytest.mark.parametrize("family,n,k", [("B", 3, 1), ("A", 4, 2), ("B", 4, 2)])
    def test_chain_label_bijection_rejects_perturbed_chains(self, family, n, k):
        # each copy of the poset perturbs its chains through one edge or one node
        p = build_poset(family, n, k)
        assert count_chains(p) > 1 and chains_bijection_check(p)
        labels = len(_coding(family, n, k).labels)
        top = next(i for i, nd in enumerate(p.nodes) if nd.rank == labels)
        s, d, c = p.edges[-1]
        used = {c2 for s2, _d2, c2 in p.edges if s2 == s}
        free = next(c2 for c2 in range(labels) if c2 not in used)
        used0 = {c2 for s2, _d2, c2 in p.edges if s2 == 0}
        free0 = next(c2 for c2 in range(labels) if c2 not in used0)
        twin = next(i for i in range(s) if p.nodes[i].rank == p.nodes[s].rank)
        perturbed = {
            "dropped": p.edges[:-1],
            "duplicated": p.edges + p.edges[-1:],
            "relabelled": p.edges[:-1] + [(s, d, free)],
            "extra": p.edges + [(0, top, free0)],
            "redirected": p.edges[:-1] + [(s, twin, c)],
        }
        for name, edges in perturbed.items():
            assert not chains_bijection_check(dataclasses.replace(p, edges=edges)), name
        # one label's bit flipped in the inversion set of s, the last edge's source
        nodes = list(p.nodes)
        nodes[s] = dataclasses.replace(nodes[s], inv=nodes[s].inv ^ 1 << free)
        assert not chains_bijection_check(dataclasses.replace(p, nodes=nodes))
        # the interval above a rank-1 node v, renumbered so that v is node 0:
        # every edge and out-label is kept, and its chains are the orderings
        # that start with v's label
        v = next(d2 for s2, d2, _c2 in p.edges if s2 == 0)
        up = [v]
        for s2, d2, _c2 in sorted(p.edges, key=lambda e: p.nodes[e[0]].rank):
            if s2 in up and d2 not in up:
                up.append(d2)
        ids = {u: i for i, u in enumerate(up)}
        rooted = dataclasses.replace(p, nodes=[p.nodes[u] for u in up], edges=[
            (ids[s2], ids[d2], c2) for s2, d2, c2 in p.edges if s2 in ids])
        assert not chains_bijection_check(rooted)
        # why the certificate rejects each: "dropped" leaves s without a legal
        # label, "duplicated" gives s two out-edges labelled c; the relabelled,
        # extra and redirected edges reach a node whose inversion set is not
        # their source's plus their label (free is not d's new bit, the top
        # inverts every label, twin has s's rank), the flipped bit breaks the
        # edge from s, and the rooted interval's node 0 inverts v's label.  The
        # extra edge adds one chain, and the redirected one keeps the count, so
        # count_chains alone would miss the latter
        counts = {name: count_chains(dataclasses.replace(p, edges=edges))
                  for name, edges in perturbed.items()}
        assert (d, counts["extra"], counts["redirected"]) == \
            (top, count_chains(p) + 1, count_chains(p))
        # the extra edge skips the middle rank, where maximal_chains meets; it
        # refuses the ungraded poset rather than drop that chain
        with pytest.raises(ValueError, match="graded"):
            maximal_chains(dataclasses.replace(p, edges=perturbed["extra"]))

    @pytest.mark.parametrize("family,n,k",
                             [("B", 2, 1), ("B", 3, 1), ("B", 2, 2),
                              ("B", 3, 2), ("A", 4, 2)])
    def test_inversion_sets_injective(self, family, n, k):
        assert inv_injectivity_check(build_poset(family, n, k))


class TestGcPause:
    """build_poset and _paths pause the cyclic collector, and every bulk call
    leaves it as it found it."""

    CALLS = {
        "build_poset": lambda: build_poset("B", 2, 2),
        "maximal_chains": lambda: maximal_chains(build_poset("B", 2, 1)),
        "chain_words": lambda: chain_words(build_poset("B", 2, 1)),
    }
    # a call and a callee inside its paused block, patched to raise; build_poset
    # runs the heap BFS on B(3,2), which has commuting pairs, and the
    # single-ordering BFS on B(3,1), which has none
    RAISES = {
        "build_poset": (lambda: build_poset("B", 3, 2), "_class_flips"),
        "build_poset-orderings": (lambda: build_poset("B", 3, 1), "_slots"),
        "maximal_chains": (CALLS["maximal_chains"], "check_extrema"),
        "chain_words": (CALLS["chain_words"], "check_extrema"),
    }
    # the paused function a call runs its bulk work in, where that is another
    PAUSED = {"maximal_chains": "_paths", "chain_words": "_paths"}
    # unpaused, but a cycle left behind would still hold the listing, and
    # they must not leave the collector changed either
    LISTINGS = {
        "enumerate_admissible": lambda: enumerate_admissible("B", 2, 2),
        "admissible_sequences": lambda: admissible_sequences(
            range(3), [(((0, 1, 2), 0b111),)]),
    }
    BULK = {**CALLS, **LISTINGS}

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("call", list(BULK))
    def test_collector_on_after_return(self, call):
        gc.enable()
        assert self.BULK[call]()
        assert gc.isenabled()

    @pytest.mark.parametrize("call", list(RAISES))
    def test_collector_on_after_raise(self, call, monkeypatch):
        from bruhatb import orders

        def boom(*args, **kwargs):
            raise RuntimeError("callee failed")
        run, callee = self.RAISES[call]
        monkeypatch.setattr(orders, callee, boom)
        gc.enable()
        with pytest.raises(RuntimeError):
            run()
        assert gc.isenabled()

    @pytest.mark.parametrize("call", list(BULK))
    def test_collector_left_off_for_a_caller_that_turned_it_off(self, call):
        gc.disable()
        assert self.BULK[call]()
        assert not gc.isenabled()

    @pytest.mark.parametrize("call", list(BULK))
    def test_no_cyclic_garbage(self, call):
        # what makes the pause safe: reference counting frees all a call makes
        run = self.BULK[call]
        run()       # fill the lazy tables first
        gc.collect()
        gc.disable()
        run()
        assert gc.collect() == 0

    def test_nested_pause_keeps_collector_off(self):
        from bruhatb import orders
        gc.enable()
        with orders._gc_paused():
            assert build_poset("B", 2, 2)
            assert not gc.isenabled()       # back in the outer paused block
        assert gc.isenabled()

    def test_calls_name_every_paused_function(self):
        # each paused function must meet the no-cycle contract above, which
        # the promotion to the oldest generation on exit relies on
        from bruhatb import orders
        paused = {f.name for f in ast.walk(ast.parse(inspect.getsource(orders)))
                  if isinstance(f, ast.FunctionDef)
                  and any(ast.unparse(d) == "_gc_paused()" for d in f.decorator_list)}
        assert paused == {self.PAUSED.get(c, c) for c in self.CALLS}
        assert set(self.CALLS) <= set(self.RAISES)

    def test_results_go_to_the_oldest_generation(self):
        gc.enable()
        gc.collect()
        chains = maximal_chains(build_poset("A", 4, 1))
        assert any(obj is chains for obj in gc.get_objects(generation=2))

    def test_caller_young_cycles_are_collected_on_entry(self):
        # else the exit would move them to the oldest generation with the results
        class Cell:
            pass
        gc.enable()
        cell = Cell()
        cell.self = cell
        ref = weakref.ref(cell)
        del cell
        build_poset("B", 2, 2)
        gc.collect(0)
        assert ref() is None

    def test_caller_freeze_is_kept(self):
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            build_poset("B", 2, 2)
            assert frozen and gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


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

    # sha256 of poset_to_json, pinned from a build before the library moved
    # to integer element codes; any change to node order, canonical forms,
    # inversion sets, edge order or text shows up here
    GOLDEN_JSON = {
        ("B", 3, 2): "21afeb88edcca2398a72454070ef9e94fc3bc279b150aa8c9fa2f26fbcc10d5e",
        ("B", 4, 1): "decc068a2f86e8b37cf8365f0cc2e3ff0f7a8eaac7b1f56d3514a20393767019",
        ("A", 5, 2): "29cd4d47f53171599caf4c4f500dc36cd6a6b7ee175ef7002836fa16310eb389",
        ("A", 6, 4): "3650a505c33fe215169ac9532043221300ca6eb5fc70ece1bcd0a018b08b09db",
        ("B", 4, 2): "caed550af95043a382d4fb81abdd46969e59793c9c037c0245a8c124fde30fb4",
    }

    @pytest.mark.parametrize("family,n,k", list(GOLDEN_JSON))
    def test_golden_json(self, family, n, k):
        text = poset_to_json(build_poset(family, n, k))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_JSON[family, n, k]
