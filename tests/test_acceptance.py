"""Acceptance suite: exact desk-scale counts and exhaustive property checks.

Each test covers one acceptance criterion and prints a single PASS line on
success (run with -s to see them).  Expected values are either structural
counts re-derived here by independent oracles (permutation filters, subset
generation, reduced-word search) or frozen numbers previously computed from
those oracles.
"""

import time
from math import factorial

from bruhatb.core import enumerate_B
from bruhatb.orders import (
    build_poset,
    canonical_form,
    chains_bijection_check,
    check_extrema,
    enumerate_admissible,
    flip_candidates,
    inv_injectivity_check,
    inversion_set,
    maximal_chains,
    rho_min,
)
from bruhatb.verify import (
    blocking_agreement,
    case_report,
    class_flip_candidates_oracle,
    crossing_agreement,
    falsified_case,
    flip_candidate_by_blocking,
    standard_cases,
)
from bruhatb.weyl import (
    act,
    braid_classify,
    chain_to_word,
    iso_check,
    longest_b,
    order_to_perm,
    reduced_words_brute,
    root_of,
)


def _extrema_ok(p):
    rep = check_extrema(p)
    return rep.unique_min and rep.unique_max and rep.graded


def test_criterion_1_type_a_flip_posets():
    """Graded posets with unique extrema, injective Inv, chain bijection."""
    start = time.monotonic()
    posets = {}
    for n, k in [(3, 1), (4, 1), (3, 2), (4, 2)]:
        p = build_poset("A", n, k)
        posets[n, k] = p
        assert _extrema_ok(p), (n, k)
        assert inv_injectivity_check(p), (n, k)
        assert chains_bijection_check(p), (n, k)
    assert len(posets[3, 1].nodes) == factorial(3) == 6
    assert len(posets[4, 1].nodes) == factorial(4) == 24
    for n in (3, 4):
        chains = maximal_chains(posets[n, 1])
        admissible = enumerate_admissible("A", n, 2)
        words = reduced_words_brute("A", n)
        assert len(chains) == len(admissible) == len(words)
    assert len(maximal_chains(posets[3, 1])) == 2
    assert len(maximal_chains(posets[4, 1])) == 16
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS criterion 1: type A flip posets graded/injective/bijective "
          f"({elapsed:.1f}s)")


def test_criterion_2_type_b_level1_weak_order():
    """Level-1 type B posets are the weak orders on signed permutations."""
    start = time.monotonic()
    for n, expected in [(2, 8), (3, 48)]:
        p = build_poset("B", n, 1)
        assert len(p.nodes) == expected == 2 ** n * factorial(n)
        assert _extrema_ok(p)
        assert iso_check(n), n
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS criterion 2: type B level-1 posets match weak orders "
          f"({elapsed:.1f}s)")


def test_criterion_3_type_b_level2_extrema():
    """Level-2 type B posets: unique extrema, graded, counts cross-checked."""
    start = time.monotonic()
    recorded = {}
    for n in (2, 3):
        p = build_poset("B", n, 2)
        assert _extrema_ok(p), n
        recorded[n] = (len(p.nodes), len(maximal_chains(p)))
        # independent route: canonical forms of the backtracking enumeration
        classes = {canonical_form(t).canon.seq
                   for t in enumerate_admissible("B", n, 2)}
        assert len(classes) == len(p.nodes)
        # independent route: blocking-based flip candidacy per class
        for node in p.nodes.values():
            direct = class_flip_candidates_oracle(node.canon)
            blocking = {K for K in enumerate_B(n, 3)
                        if flip_candidate_by_blocking(node.canon, K)}
            assert blocking == direct
    assert recorded[2] == (2, 1)
    assert recorded[3] == (14, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"PASS criterion 3: type B level-2 posets "
          f"(counts {recorded}) ({elapsed:.1f}s)")


def test_criterion_4_chain_label_bijection():
    """Maximal chains biject onto admissible orderings one level up."""
    start = time.monotonic()
    sizes = {}
    for family_n_k in [("B", 2, 1), ("B", 3, 1), ("B", 2, 2), ("B", 3, 2)]:
        family, n, k = family_n_k
        p = build_poset(family, n, k)
        assert chains_bijection_check(p), family_n_k
        sizes[n, k] = len(maximal_chains(p))
    assert sizes[2, 1] == len(enumerate_admissible("B", 2, 2)) == 2
    assert sizes[2, 2] == len(enumerate_admissible("B", 2, 3)) == 1
    words_b3 = reduced_words_brute("B", 3)
    assert sizes[3, 1] == len(words_b3) == 42
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"PASS criterion 4: chain bijections (sizes {sizes}) "
          f"({elapsed:.1f}s)")


def test_criterion_5_inversion_injectivity():
    """Distinct classes have distinct inversion sets, exhaustively."""
    start = time.monotonic()
    for n in (1, 2, 3):
        for k in (1, 2):
            p = build_poset("B", n, k)
            assert inv_injectivity_check(p), (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS criterion 5: inversion sets injective on all classes "
          f"({elapsed:.1f}s)")


def test_criterion_6_root_inversion_compatibility():
    """K inverted exactly when the permutation negates K's root."""
    start = time.monotonic()
    counts = {}
    for n in (2, 3):
        instances = 0
        for rho in enumerate_admissible("B", n, 1):
            pi = order_to_perm(rho)
            inv = inversion_set(rho)
            for K in enumerate_B(n, 2):
                assert (K in inv) == (not act(pi, root_of(K)).positive)
                instances += 1
        counts[n] = instances
    assert counts[2] == 8 * 4 and counts[3] == 48 * 9
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS criterion 6: root-inversion compatibility "
          f"({counts[2]} + {counts[3]} instances) ({elapsed:.1f}s)")


def test_criterion_7_chain_words_and_braid_moves():
    """Chains give reduced words; flips and swaps act as braid moves."""
    from bruhatb.orders import commutes, packet_flip
    start = time.monotonic()
    for n in (2, 3):
        words = {}
        for rho in enumerate_admissible("B", n, 2):
            word = chain_to_word(rho.seq, "B", n)
            assert word.is_reduced()
            assert word.evaluate() == longest_b(n)
            words[rho.seq] = word.letters
        for rho in enumerate_admissible("B", n, 2):
            w1 = words[rho.seq]
            for K in flip_candidates(rho):
                w2 = words[packet_flip(rho, K).seq]
                diff = [t for t in range(len(w1)) if w1[t] != w2[t]]
                arity = 3 if braid_classify(K) == "m3" else 4
                assert len(diff) == arity
                assert diff == list(range(diff[0], diff[-1] + 1))
                a, b = w1[diff[0]], w1[diff[0] + 1]
                assert list(w1[diff[0]:diff[0] + arity]) == \
                    [a, b, a, b][:arity]
                assert list(w2[diff[0]:diff[0] + arity]) == \
                    [b, a, b, a][:arity]
            for t in range(len(rho.seq) - 1):
                a, b = rho.seq[t], rho.seq[t + 1]
                if not commutes(a, b, "B", n, 2):
                    continue
                swapped = rho.seq[:t] + (b, a) + rho.seq[t + 2:]
                w2 = words[swapped]
                assert (w2[t], w2[t + 1]) == (w1[t + 1], w1[t])
                assert [u for u in range(len(w1)) if w1[u] != w2[u]] == \
                    [t, t + 1]
    # the rank-2 picture: two alternating words, one m4 move apart
    two = sorted(words_n2 := {
        rho.seq: chain_to_word(rho.seq, "B", 2).letters
        for rho in enumerate_admissible("B", 2, 2)}.values())
    assert two == [(0, 1, 0, 1), (1, 0, 1, 0)]
    assert len(words_n2) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"PASS criterion 7: chain words reduced, braid arities match "
          f"({elapsed:.1f}s)")


def test_criterion_8_appendix_machinery():
    """Crossing scan vs oracle, blocking equivalence, the seven cases."""
    start = time.monotonic()
    instances = 0
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        rep = crossing_agreement(n, k)
        assert rep["result"], rep
        instances += rep["params"]["instances"]
    assert instances >= 10 ** 4
    for n in (2, 3):
        rep = blocking_agreement(n)
        assert rep["result"], rep
    for case in standard_cases():
        rep = case_report(case)
        assert rep.ok and rep.extensions > 0, case.case_id
    control = case_report(falsified_case())
    assert control.ok and control.extensions == 0
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"PASS criterion 8: appendix machinery "
          f"({instances} crossing instances) ({elapsed:.1f}s)")
