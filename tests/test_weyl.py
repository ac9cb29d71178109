"""Permutation realizations, roots, weak orders, and chain words."""

import dataclasses
import hashlib
import itertools
import sys
from collections import deque
from math import factorial
from pathlib import Path

import pytest

from bruhatb import weyl
from bruhatb.core import normalize_orbit, star
from bruhatb.orders import (
    TotalOrder,
    _coding,
    _flip_runs,
    _slots,
    build_poset,
    commutes,
    count_chains,
    enumerate_admissible,
    flip_candidates,
    inversion_set,
    maximal_chains,
    rho_max,
    rho_min,
)
from bruhatb.weyl import (
    ChainError,
    InvalidOrderingError,
    ReducedWord,
    Root,
    SignedPermutation,
    _iso_check,
    _pairs,
    _swap_pairs,
    act,
    all_signed_permutations,
    braid_classify,
    braid_correspondence,
    chain_to_word,
    chain_words,
    check_root_inversions,
    identity_b,
    iso_check,
    level1_group_bijection_check,
    longest_a,
    longest_b,
    order_to_perm,
    positive_roots_b,
    reduced_words_brute,
    root_of,
    simple_reflection_b,
    simple_reflections,
    weak_order,
    weyl_inversions,
    weyl_length,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_orders import ref_flip, ref_packets  # noqa: E402


class TestOrderToPerm:
    def test_minimum_is_identity(self):
        assert order_to_perm(rho_min("B", 3, 1)) == identity_b(3)
        assert order_to_perm(rho_min("A", 3, 1)).images == (1, 2, 3)

    def test_maximum_is_longest(self):
        assert order_to_perm(rho_max("B", 3, 1)) == longest_b(3)
        assert order_to_perm(rho_max("A", 3, 1)) == longest_a(3)

    def test_slot_example(self):
        pi = order_to_perm(TotalOrder("B", 2, 1, (-1, -2, 2, 1)))
        assert pi.images == (2, 1)

    def test_window_strings(self):
        assert str(SignedPermutation((2, 1))) == "[2, 1]"
        assert str(SignedPermutation((-1, 2))) == "[-1, 2]"

    def test_non_signed_ordering_rejected(self):
        bad = TotalOrder("B", 2, 1, (1, -1, -2, 2))
        with pytest.raises(InvalidOrderingError):
            order_to_perm(bad)


class TestRoots:
    def test_root_of_examples(self):
        assert root_of(normalize_orbit((-2, -1))) == Root("diff", 2, 1)
        assert root_of(normalize_orbit((-2, 1))) == Root("sum", 2, 1)
        assert root_of(star((2,))) == Root("short", 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_root_bijection_counts(self, n):
        from bruhatb.core import enumerate_B
        roots = {root_of(K) for K in enumerate_B(n, 2)}
        assert len(roots) == n * n
        assert roots == set(positive_roots_b(n))

    def test_act_identity(self):
        for a in positive_roots_b(3):
            assert act(identity_b(3), a) == a

    def test_act_longest_negates(self):
        assert act(longest_b(2), Root("diff", 2, 1)) == Root("diff", 2, 1, -1)

    def test_act_sign_flip(self):
        assert act(SignedPermutation((-1, 2)), Root("short", 1)) == \
            Root("short", 1, 0, -1)

    def test_act_is_an_action_on_all_roots(self):
        roots = positive_roots_b(3)
        roots += [dataclasses.replace(a, sign=-1) for a in roots]
        group = all_signed_permutations(3)
        for p in group:
            for q in group:
                pq = p.compose(q)
                for a in roots:
                    assert act(pq, a) == act(p, act(q, a)), (p, q, a)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_longest_negates_every_root(self, n):
        for a in positive_roots_b(n):
            neg = dataclasses.replace(a, sign=-1)
            assert act(longest_b(n), a) == neg
            assert act(longest_b(n), neg) == a

    def test_inversions_identity_empty(self):
        assert weyl_inversions(identity_b(3)) == frozenset()
        assert weyl_length(identity_b(3)) == 0

    def test_inversions_longest_full(self):
        assert weyl_inversions(longest_b(2)) == frozenset(positive_roots_b(2))
        assert weyl_length(longest_b(2)) == 4

    def test_single_sign_change(self):
        assert weyl_inversions(SignedPermutation((-1, 2))) == \
            frozenset({Root("short", 1)})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_length_counts_root_inversions(self, n):
        perms = all_signed_permutations(n)
        assert len(perms) == 2 ** n * factorial(n)
        for pi in perms:
            assert weyl_length(pi) == len(weyl_inversions(pi)), pi


class TestWeakOrder:
    def test_rank1_two_elements(self):
        g = weak_order("B", 1)
        assert len(g.ranks) == 2 and set(g.ranks.values()) == {0, 1}

    def test_rank2_shape(self):
        g = weak_order("B", 2)
        assert len(g.ranks) == 8 and len(g.edges) == 8
        assert sorted(g.ranks.values()) == [0, 1, 1, 2, 2, 3, 3, 4]
        tops = [w for w, r in g.ranks.items() if r == 4]
        assert tops == [longest_b(2).images]

    def test_symmetric_group_variant(self):
        g = weak_order("A", 3)
        assert len(g.ranks) == 6
        assert max(g.ranks.values()) == 3

    def test_length_equals_graph_distance(self):
        for n in (2, 3):
            g = weak_order("B", n)
            dist = {identity_b(n).images: 0}
            frontier = deque([identity_b(n).images])
            succ = {}
            for s, d, _ in g.edges:
                succ.setdefault(s, []).append(d)
            while frontier:
                w = frontier.popleft()
                for nxt in succ.get(w, ()):
                    if nxt not in dist:
                        dist[nxt] = dist[w] + 1
                        frontier.append(nxt)
            assert dist == g.ranks

    @pytest.mark.parametrize("family,n", [("B", 1), ("B", 2), ("B", 3), ("B", 4),
                                          ("A", 2), ("A", 3), ("A", 4), ("A", 5)])
    def test_windows_match_composed_products(self, family, n):
        # reference: each product s_g w by SignedPermutation.compose, ranked
        # by weyl_length; the graph's rank map keeps the listing order
        elems = (all_signed_permutations(n) if family == "B" else
                 [SignedPermutation(w) for w in itertools.permutations(range(1, n + 1))])
        ranks = {w.images: weyl_length(w) for w in elems}
        edges = {(w.images, s.compose(w).images, g)
                 for w in elems for g, s in simple_reflections(family, n).items()
                 if weyl_length(s.compose(w)) == ranks[w.images] + 1}
        g = weak_order(family, n)
        assert list(g.ranks.items()) == list(ranks.items())
        assert g.edges == edges and len(edges) == len(ranks) * len(
            simple_reflections(family, n)) // 2

    @pytest.mark.parametrize("n", (2, 3))
    def test_flip_poset_isomorphism(self, n):
        assert iso_check(n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_type_a_flip_poset_isomorphism(self, n):
        # A(n,1) is the weak order on S_n, the positive windows of B_n
        assert _iso_check(build_poset("A", n, 1))

    def test_type_a_swapped_edge_labels_fail(self):
        p = build_poset("A", 4, 1)
        assert _iso_check(p)
        (s0, d0, K0), edges = p.edges[0], list(p.edges)
        i = next(i for i, (_s, _d, K) in enumerate(edges) if K != K0)
        s1, d1, K1 = edges[i]
        edges[0], edges[i] = (s0, d0, K1), (s1, d1, K0)
        assert not _iso_check(dataclasses.replace(p, edges=edges))

    @pytest.mark.parametrize("family, n", [("B", 3), ("A", 4)])
    def test_moved_edge_destination_fails(self, family, n):
        # the edge keeps its source and label, so its letter, and moves to
        # another class of the same rank: counts and ranks still agree
        p = build_poset(family, n, 1)
        (s, d, c), edges = p.edges[0], list(p.edges)
        edges[0] = (s, next(v for v, nd in enumerate(p.nodes)
                            if v != d and nd.rank == p.nodes[d].rank), c)
        assert _iso_check(p) and not _iso_check(dataclasses.replace(p, edges=edges))

    @pytest.mark.parametrize("family, n", [("B", 2), ("B", 3), ("A", 3), ("A", 4)])
    def test_unflippable_edge_label_fails(self, family, n):
        # each edge in turn takes each label that cannot flip at its source
        # (a pair not in adjacent slots), which has no letter
        p = build_poset(family, n, 1)
        pairs = _pairs(family, n)
        tried = 0
        for e, (s, d, _c) in enumerate(p.edges[:40]):
            pos = _slots(p.nodes[s].canon)
            for bad in range(len(pairs)):
                if any(abs(pos[a] - pos[b]) != 1 for a, b in pairs[bad]):
                    edges = list(p.edges)
                    edges[e] = (s, d, bad)
                    assert not _iso_check(dataclasses.replace(p, edges=edges))
                    tried += 1
        assert tried and _iso_check(p)

    @pytest.mark.parametrize("i", (0, 30, -1))
    def test_duplicated_edge_fails(self, i):
        # a copy maps onto the weak-order edge its original maps onto, so the
        # edge sets agree; only the edge count tells the copy, which adds chains
        p = build_poset("B", 3, 1)
        twice = dataclasses.replace(p, edges=[*p.edges, p.edges[i]])
        assert count_chains(twice) > count_chains(p) == 42
        assert _iso_check(p) and not _iso_check(twice)

    def test_first_flip_edge_matches_short_reflection(self):
        base = rho_min("B", 2, 1)
        from bruhatb.orders import packet_flip
        flipped = packet_flip(base, star((1,)))
        step = order_to_perm(flipped).compose(order_to_perm(base).inverse())
        assert step == simple_reflection_b(2, 0)

    @pytest.mark.parametrize("n", (2, 3))
    def test_group_bijection(self, n):
        ok, orderings = level1_group_bijection_check(n)
        assert ok and orderings == 2 ** n * factorial(n)


class TestLevel1Pairs:
    # at level 1 every packet component is a pair of codes, so a flip is one
    # or two adjacent transpositions; the pair table and its swap must agree
    # with the general replay by run reversal (orders._flip_runs)

    @pytest.mark.parametrize("family,n", [("A", n) for n in range(1, 8)]
                             + [("B", n) for n in range(1, 6)])
    def test_every_level1_component_is_a_pair(self, family, n):
        labels = _coding(family, n, 1).labels
        assert all(len(codes) == 2 for _K, comps in labels for codes, _mask in comps)
        assert _pairs(family, n) == tuple(tuple(codes for codes, _mask in comps)
                                          for _K, comps in labels)

    @pytest.mark.parametrize("family,n,k", [("B", 2, 2), ("B", 3, 2), ("A", 4, 2),
                                            ("A", 5, 3)])
    def test_pair_table_rejects_higher_levels(self, family, n, k):
        with pytest.raises(ValueError, match=f"{family}\\({n},{k}\\) is not a level-1"):
            _pairs(family, n, k)

    def test_swap_pairs_is_flip_runs_on_every_placement(self):
        # every ordering of B(2,1) and every label: the same slot, the same
        # sequence and slots after, and nothing moved on -1
        coding, pairs = _coding("B", 2, 1), _pairs("B", 2)
        for perm in itertools.permutations(range(len(coding.ground))):
            for (_K, comps), pair in zip(coding.labels, pairs):
                seq, ref = list(perm), list(perm)
                pos, ref_pos = _slots(seq), _slots(ref)
                assert _swap_pairs(seq, pos, pair) == _flip_runs(ref, ref_pos, comps)
                assert (seq, pos) == (ref, ref_pos)
                assert _swap_pairs(None, _slots(list(perm)), pair) == \
                    _flip_runs(list(perm), _slots(list(perm)), comps)

    @pytest.mark.parametrize("family,n", [("B", n) for n in range(1, 6)]
                             + [("A", n) for n in range(2, 7)])
    def test_edge_letters_match_general_replay(self, family, n):
        p = build_poset(family, n, 1)
        coding = _coding(family, n, 1)
        offset = len(coding.ground) - n
        expected = [_flip_runs(seq := list(p.nodes[s].canon), _slots(seq),
                               coding.labels[c][1]) - offset for s, _d, c in p.edges]
        assert weyl._edge_letters(p) == expected

    @pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("B", 4),
                                          ("A", 3), ("A", 4), ("A", 5)])
    def test_chain_to_word_matches_general_replay(self, family, n):
        coding = _coding(family, n, 1)
        offset = len(coding.ground) - n
        for labels in maximal_chains(build_poset(family, n, 1)):
            seq = list(range(len(coding.ground)))
            pos = seq[:]
            expected = tuple(_flip_runs(seq, pos, coding.labels[coding.label_code[K]][1])
                             - offset for K in labels)
            assert chain_to_word(labels, family, n).letters == expected


class TestRootInversionCompatibility:
    def test_single_instance(self):
        rho = TotalOrder("B", 2, 1, (-1, -2, 2, 1))
        K = normalize_orbit((-2, -1))
        assert K in inversion_set(rho)
        assert not act(order_to_perm(rho), root_of(K)).positive

    @pytest.mark.parametrize("n", (2, 3))
    def test_exhaustive(self, n):
        assert check_root_inversions(n)

    def test_second_call_checks_again(self, monkeypatch):
        assert check_root_inversions(2)
        monkeypatch.setattr(weyl, "root_of", lambda K: Root("short", 1))
        assert not check_root_inversions(2)

    def test_no_ordering_fails(self, monkeypatch):
        monkeypatch.setattr(weyl, "enumerate_admissible", lambda *args: [])
        assert not check_root_inversions(2)


class TestChainWords:
    def test_alternating_word_rank2(self):
        chains = maximal_chains(build_poset("B", 2, 1))
        word = chain_to_word(chains[0], "B", 2)
        assert word.letters == (1, 0, 1, 0)
        assert word.as_applied() == "s1 s0 s1 s0"
        assert word.is_reduced()
        assert word.evaluate() == longest_b(2)

    def test_all_chains_give_reduced_words(self):
        for n in (2, 3):
            for labels in maximal_chains(build_poset("B", n, 1)):
                word = chain_to_word(labels, "B", n)
                assert len(word.letters) == n * n
                assert word.is_reduced()
                assert word.evaluate() == longest_b(n)

    def test_type_a_chain_words(self):
        for labels in maximal_chains(build_poset("A", 3, 1)):
            word = chain_to_word(labels, "A", 3)
            assert word.is_reduced() and word.evaluate() == longest_a(3)

    @pytest.mark.parametrize("family,n", [("B", 3), ("A", 4), ("A", 5)])
    def test_letters_match_group_reference(self, family, n):
        # reference: each letter is the generator g with s_g w = v, for the
        # flips of the element-level reference
        reflections = simple_reflections(family, n)
        packets = ref_packets(family, n, 1)
        for labels in maximal_chains(build_poset(family, n, 1)):
            rho = rho_min(family, n, 1)
            w = order_to_perm(rho)
            expected = []
            for K in labels:
                rho = ref_flip(rho, packets[K])
                v = order_to_perm(rho)
                (g,) = [g for g, s in reflections.items() if s.compose(w) == v]
                expected.append(g)
                w = v
            assert chain_to_word(labels, family, n).letters == tuple(expected)

    def test_partial_chain_rejected(self):
        chains = maximal_chains(build_poset("B", 2, 1))
        with pytest.raises(ChainError):
            chain_to_word(chains[0][:2], "B", 2)

    def test_non_level2_label_rejected(self):
        chain = maximal_chains(build_poset("B", 2, 1))[0]
        for bad in (-1, (1, 2)):     # a level-1 element; a type A pair
            with pytest.raises(ChainError, match="not a level-2 element"):
                chain_to_word((bad, *chain[1:]), "B", 2)
            with pytest.raises(ChainError, match="not a level-2 element"):
                chain_to_word((*chain[:-1], bad), "B", 2)

    @pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("A", 4)])
    def test_repeated_label_rejected(self, family, n):
        for chain in maximal_chains(build_poset(family, n, 1)):
            for t in range(1, len(chain)):
                bad = chain[:t] + (chain[t - 1],) + chain[t + 1:]
                with pytest.raises(ChainError):
                    chain_to_word(bad, family, n)

    # sha256 of the words of all B_4 chains in maximal_chains order, one per
    # line, pinned from the replay by packet_flip on TotalOrders
    GOLDEN_B4 = (24024, "306f45ea1ce0d80b7a66a48e174bf3f0e3e21654f17230640a7e3e13f58aab0a")

    @staticmethod
    def _digest(words) -> tuple:
        text = "\n".join(" ".join(map(str, w)) for w in words)
        return len(words), hashlib.sha256(text.encode()).hexdigest()

    def test_golden_b4_words(self):
        words = [chain_to_word(c, "B", 4).letters
                 for c in maximal_chains(build_poset("B", 4, 1))]
        assert self._digest(words) == self.GOLDEN_B4

    def test_golden_b4_table(self):
        assert self._digest(list(chain_words(build_poset("B", 4, 1)).values())) == \
            self.GOLDEN_B4

    @pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("B", 4), ("A", 1),
                                          ("A", 3), ("A", 4), ("A", 5)])
    def test_table_agrees_with_chain_to_word(self, family, n):
        # the table is keyed by each chain's label codes, in maximal_chains
        # order, and holds the word chain_to_word replays from its elements;
        # A(1,1) has no label, so its one chain and its word are empty
        p = build_poset(family, n, 1)
        chains, code = maximal_chains(p), _coding(family, n, 1).label_code
        words = chain_words(p)
        assert list(words) == [tuple(code[K] for K in c) for c in chains]
        assert list(words.values()) == [chain_to_word(c, family, n).letters
                                        for c in chains]

    @pytest.mark.parametrize("family,n,k", [("B", 2, 2), ("A", 4, 2), ("A", 3, 3)])
    def test_table_needs_level_1(self, family, n, k):
        with pytest.raises(ValueError, match=f"level {k}"):
            chain_words(build_poset(family, n, k))

    def test_scrambled_chain_rejected(self):
        first, second, *rest = maximal_chains(build_poset("B", 2, 1))[0]
        bad = (second, first, *rest)
        with pytest.raises(ChainError, match="not flippable at its step"):
            chain_to_word(bad, "B", 2)


class TestBraid:
    def test_classify(self):
        assert braid_classify(star((2, 1))) == "m4"
        assert braid_classify(normalize_orbit((-3, 2, 1))) == "m3"
        assert braid_classify((1, 2, 3)) == "m3"

    def test_classify_rejects_other_levels(self):
        for bad in (star((1,)), (3, 2, 1), ("x", "y", "z")):
            with pytest.raises(ValueError):
                braid_classify(bad)

    @pytest.mark.parametrize("n", (2, 3))
    def test_flip_braid_correspondence(self, n):
        (ok, flips), _swaps = braid_correspondence(
            chain_words(build_poset("B", n, 1)), "B", n)
        assert ok and flips == sum(len(flip_candidates(rho))
                                   for rho in enumerate_admissible("B", n, 2))

    @pytest.mark.parametrize("n", (2, 3))
    def test_swap_commutation_correspondence(self, n):
        _flips, (ok, swaps) = braid_correspondence(
            chain_words(build_poset("B", n, 1)), "B", n)
        if n == 2:      # B(2,2)'s two orderings have no commuting neighbours
            assert swaps == 0
        else:
            assert ok and swaps > 0

    def test_reversed_words_fail(self):
        # each flip changes its neighbour's word on the slots it reverses,
        # not on their mirror image
        words = chain_words(build_poset("B", 3, 1))
        reversed_words = {codes: w[::-1] for codes, w in words.items()}
        (flips_ok, _), (swaps_ok, _) = braid_correspondence(reversed_words, "B", 3)
        assert not flips_ok and not swaps_ok

    @pytest.mark.parametrize("family,n,moves", [
        ("B", 2, (2, 0)), ("B", 3, (40, 80)),
        ("A", 3, (2, 0)), ("A", 4, (16, 20)), ("A", 5, (768, 2772)),
        ("B", 4, (27456, 141180)),
    ], ids=("2", "3", "A3", "A4", "A5", "4"))
    def test_moves_count_braid_blocks_of_reduced_words(self, family, n, moves):
        # an alternating block (a, b, a, ...) of length m(a, b) in a reduced
        # word of the longest element is one edge of the reduced-expression
        # graph; m from the Coxeter matrix of the family
        def m(a, b):
            if abs(a - b) > 1:
                return 2
            return 4 if family == "B" and {a, b} == {0, 1} else 3

        blocks = {2: 0, 3: 0, 4: 0}
        for w in reduced_words_brute(family, n):
            for lo in range(len(w) - 1):
                a, b = w[lo], w[lo + 1]
                if a != b and w[lo:lo + m(a, b)] == ((a, b) * 2)[:m(a, b)]:
                    blocks[m(a, b)] += 1
        assert (blocks[3] + blocks[4], blocks[2]) == moves
        words = chain_words(build_poset(family, n, 1))
        assert braid_correspondence(words, family, n) == ((True, moves[0]), (True, moves[1]))

    @pytest.mark.parametrize("drop", (0, 41))
    def test_missing_chain_fails(self, drop):
        # a flip or swap into the dropped ordering has no word to compare
        words = chain_words(build_poset("B", 3, 1))
        assert len(words) == 42
        del words[list(words)[drop]]
        (flips_ok, _), (swaps_ok, _) = braid_correspondence(words, "B", 3)
        assert not flips_ok and not swaps_ok

    @pytest.mark.parametrize("wrong,verdicts", [
        (lambda a, b: abs(a - b) > 1, ((True, 40), (False, 80))),
        (lambda a, b: {a, b} == {0, 1}, ((False, 40), (True, 80))),
    ], ids=("commuting", "star"))
    def test_verdicts_stay_separate(self, monkeypatch, wrong, verdicts):
        # a wrong Coxeter matrix entry fails only the moves of its arity, and
        # the walk still counts every move of the table
        order = weyl._generator_order
        monkeypatch.setattr(weyl, "_generator_order", lambda family, n, a, b:
                            3 if wrong(a, b) else order(family, n, a, b))
        words = chain_words(build_poset("B", 3, 1))
        assert braid_correspondence(words, "B", 3) == verdicts

    def test_spans_once_per_ordering(self, monkeypatch):
        # one walk per rank: B(2,2) has 2 orderings and B(3,2) 42
        from bruhatb.verify import run_suite
        calls = []
        spans = weyl._move_spans

        def counted(*args):
            calls.append(1)
            return spans(*args)
        monkeypatch.setattr(weyl, "_move_spans", counted)
        assert all(r["result"] for r in run_suite("weyl", 3))
        assert len(calls) == 2 + 42

    def test_move_spans_match_packet_runs(self):
        # the window lookup finds exactly the flips that orders._runs finds
        # label by label, and the swaps follow them
        from bruhatb.orders import _runs, _slots
        flips = 0
        for family, n in [("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3)]:
            coding = _coding(family, n, 2)
            windows = weyl._flip_windows(coding.labels)
            assert sum(map(len, windows.values())) == len(coding.labels)
            for rho in enumerate_admissible(family, n, 2):
                codes = tuple(coding.code[e] for e in rho.seq)
                spans = weyl._move_spans(codes, windows, coding.partners)
                runs = [(lo, hi + 1 - lo) for _K, comps in coding.labels
                        for lo, hi in _runs(_slots(codes), comps)]
                assert sorted(s for s in spans if s[1] > 2) == sorted(runs)
                assert [s for s in spans if s[1] == 2] == [
                    (t, 2) for t in range(len(codes) - 1)
                    if commutes(*(coding.ground[c] for c in codes[t:t + 2]), family, n, 2)]
                flips += len(runs)
        assert flips == 2 + 16 + 768 + 2 + 40


class TestReducedWordOracle:
    def test_counts(self):
        assert len(reduced_words_brute("A", 3)) == 2
        assert len(reduced_words_brute("A", 4)) == 16
        assert len(reduced_words_brute("B", 2)) == 2

    def test_words_evaluate_to_longest(self):
        for word in reduced_words_brute("B", 2):
            assert ReducedWord("B", 2, word).evaluate() == longest_b(2)

    @pytest.mark.parametrize("family,n", [("A", 1), ("A", 3), ("A", 4),
                                          ("B", 1), ("B", 2), ("B", 3)])
    def test_equals_filter_of_all_words(self, family, n):
        # every word of length l(w0) = n^2 (type B) or n(n-1)/2 (type A) over
        # the generators, kept when it evaluates to the longest element
        longest = longest_b(n) if family == "B" else longest_a(n)
        length = n * n if family == "B" else n * (n - 1) // 2
        words = {w for w in itertools.product(range(family == "A", n), repeat=length)
                 if ReducedWord(family, n, w).evaluate() == longest}
        assert reduced_words_brute(family, n) == words

    @pytest.mark.parametrize("family,n,bound,count", [
        ("A", 5, 120 * 4, 768), ("B", 3, 48 * 3, 42), ("B", 4, 384 * 4, 24024)])
    def test_composes_once_per_element_and_generator(self, monkeypatch,
                                                     family, n, bound, count):
        # the words are paths of the weak order, which composes each group
        # element with each generator once; the words cost no compose
        calls = []
        compose = SignedPermutation.compose

        def counted(self, other):
            calls.append(1)
            return compose(self, other)
        monkeypatch.setattr(SignedPermutation, "compose", counted)
        assert len(reduced_words_brute(family, n)) == count
        assert len(calls) <= bound

    def test_weak_order_missing_the_top_lists_nothing(self, monkeypatch):
        # the longest element is the closed form, not the graph's top
        weak = weyl.weak_order("B", 3)
        top = longest_b(3).images
        weak.edges = {e for e in weak.edges if e[1] != top}
        monkeypatch.setattr(weyl, "weak_order", lambda family, n: weak)
        assert reduced_words_brute("B", 3) == set()

    def test_group_sizes(self):
        assert len(all_signed_permutations(3)) == 2 ** 3 * factorial(3)

    @pytest.mark.parametrize("family,n", [("B", 3), ("A", 4), ("B", 2)])
    def test_evaluate_matches_group_replay(self, family, n):
        reflections = simple_reflections(family, n)

        def replay(letters):
            w = identity_b(n)
            for g in letters:
                w = reflections[g].compose(w)
            return w

        chain_words = [chain_to_word(labels, family, n).letters
                       for labels in maximal_chains(build_poset(family, n, 1))]
        gens = tuple(reflections)
        others = ([w + w[:1] for w in chain_words] + [w[1:] for w in chain_words]
                  + [(g, g) for g in gens] + [gens * 4, ()])
        reduced = 0
        for letters in chain_words + others:
            word = ReducedWord(family, n, letters)
            w = replay(letters)
            assert word.evaluate() == w
            assert word.is_reduced() == (weyl_length(w) == len(letters))
            reduced += word.is_reduced()
        # the chain words, their proper suffixes and the empty word
        assert reduced == 2 * len(chain_words) + 1

    @pytest.mark.parametrize("family,g", [("B", 3), ("B", -1), ("A", 0), ("A", 3)])
    def test_out_of_range_generator_rejected(self, family, g):
        word = ReducedWord(family, 3, (1, g))
        with pytest.raises(ValueError, match="generator index out of range"):
            word.evaluate()
        with pytest.raises(ValueError, match="generator index out of range"):
            word.is_reduced()


class TestSignedPermutation:
    def test_compose_inverse(self):
        for pi in all_signed_permutations(2):
            assert pi.compose(pi.inverse()) == identity_b(2)

    def test_compose_is_pointwise(self):
        group = all_signed_permutations(3)
        for pi in group:
            for sigma in group:
                assert pi.compose(sigma).images == \
                    tuple(pi(sigma(i)) for i in range(1, 4))

    def test_negation_equivariance(self):
        pi = SignedPermutation((-2, 1))
        assert pi(-1) == -pi(1) and pi(-2) == -pi(2)

    @pytest.mark.parametrize("i", (0, 4, -4))
    def test_index_out_of_range_rejected(self, i):
        with pytest.raises(ValueError, match=f"index {i} "):
            identity_b(3)(i)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SignedPermutation((1, 1))
