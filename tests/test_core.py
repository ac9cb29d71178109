"""Ground sets, normalization, packets, and the standard orders."""

import itertools
from math import comb

import pytest

from bruhatb.core import (
    BElem,
    UnsupportedLevelError,
    enumerate_A,
    enumerate_B,
    format_element,
    normalize_orbit,
    packet_A,
    packet_B,
    parse_element,
    standard_key,
    star,
)


def brute_subsets(n, k):
    return sorted(set(itertools.combinations(range(1, n + 1), k)))


class TestEnumerateA:
    def test_lex_order_3_2(self):
        assert enumerate_A(3, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_singletons(self):
        assert enumerate_A(3, 1) == [(1,), (2,), (3,)]

    def test_4_3_against_subset_oracle(self):
        out = enumerate_A(4, 3)
        assert out == brute_subsets(4, 3)
        assert len(out) == 4 and out[0] == (1, 2, 3) and out[-1] == (2, 3, 4)

    @pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (3, 4)])
    def test_invalid_arguments(self, n, k):
        with pytest.raises(ValueError):
            enumerate_A(n, k)

    def test_reverse_is_antilex(self):
        assert enumerate_A(3, 2)[::-1] == [(2, 3), (1, 3), (1, 2)]


class TestPacketA:
    def test_triple(self):
        assert packet_A((1, 2, 3)) == {(1, 2), (1, 3), (2, 3)}

    def test_pair(self):
        assert packet_A((1, 2)) == {(1,), (2,)}

    def test_quadruple_against_oracle(self):
        K = (1, 2, 3, 4)
        assert packet_A(K) == set(itertools.combinations(K, 3))
        assert len(packet_A(K)) == 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            packet_A((1,))

    def test_two_packets_share_at_most_one_element(self):
        # distinct same-level packets in type A intersect in <= 1 element
        for n in range(2, 6):
            for k in range(1, n):
                packets = [packet_A(K) for K in enumerate_A(n, k + 1)]
                for p, q in itertools.combinations(packets, 2):
                    assert len(p & q) <= 1


class TestNormalizeOrbit:
    def test_mixed_pair(self):
        assert normalize_orbit({3, -2}) == BElem("orbit", (-3, 2))

    def test_negation_applied(self):
        # largest magnitude is 2 and positive, so the whole set negates
        assert normalize_orbit({-1, 2}) == BElem("orbit", (-2, 1))

    def test_already_preferred(self):
        assert normalize_orbit({-2, -1}) == BElem("orbit", (-2, -1))

    def test_display_order(self):
        assert normalize_orbit({-5, 3, -2, 1}).entries == (-5, -2, 3, 1)

    def test_idempotent_and_negation_invariant(self):
        for n in (2, 3, 4):
            for size in (1, 2, 3):
                for absvals in itertools.combinations(range(1, n + 1), size):
                    for signs in itertools.product((1, -1), repeat=size):
                        raw = [s * v for s, v in zip(signs, absvals)]
                        e = normalize_orbit(raw)
                        assert normalize_orbit(e.entries) == e
                        assert normalize_orbit([-v for v in raw]) == e

    def test_repeated_absolute_value_rejected(self):
        with pytest.raises(ValueError):
            normalize_orbit({2, -2})

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_orbit({0, 1})


class TestEnumerateB:
    def test_level1_is_signed_range(self):
        assert enumerate_B(2, 1) == [-2, -1, 1, 2]

    def test_level2_rank2(self):
        assert enumerate_B(2, 2) == [
            normalize_orbit((-2, -1)), star((2,)),
            normalize_orbit((-2, 1)), star((1,))]

    def test_level2_rank3(self):
        got = [format_element(e) for e in enumerate_B(3, 2)]
        assert got == ["[-3,-2]", "[-3,-1]", "[-2,-1]", "[3,*]",
                       "[-3,2]", "[-3,1]", "[2,*]", "[-2,1]", "[1,*]"]

    def test_level3_rank3(self):
        got = [format_element(e) for e in enumerate_B(3, 3)]
        assert got == ["[-3,-2,-1]", "[3,2,*]", "[-3,-2,1]", "[-3,-1,2]",
                       "[3,1,*]", "[2,1,*]", "[-3,2,1]"]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sizes(self, n):
        assert len(enumerate_B(n, 1)) == 2 * n
        if n >= 1:
            assert len(enumerate_B(n, 2)) == n * n
            assert len(enumerate_B(n, 3)) == 4 * comb(n, 3) + comb(n, 2)

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevelError):
            enumerate_B(4, 4)

    def test_standard_order_restricts_to_packet_order(self):
        # the minimal order is admissible: every packet appears forward
        for n in range(1, 5):
            for k in (1, 2, 3):
                ground = enumerate_B(n, k)
                pos = {e: i for i, e in enumerate(ground)}
                for K in _upper(n, k):
                    for chain in packet_B(K).components:
                        ps = [pos[e] for e in chain]
                        assert ps == sorted(ps)


def _upper(n, k):
    from bruhatb.core import _level_elements
    if k + 1 == 1:
        return []
    return [e for e in _level_elements(n, k + 1)] if k + 1 <= 4 else []


class TestPacketB:
    def test_orbit_pair_packet(self):
        p = packet_B(normalize_orbit((-3, 2)))
        assert p.elements == frozenset({-3, -2, 2, 3})
        assert p.components == ((-3, 2), (-2, 3))

    def test_both_negative_pair_packet(self):
        p = packet_B(normalize_orbit((-2, -1)))
        assert p.components == ((-2, -1), (1, 2))

    def test_star_pair_packet(self):
        p = packet_B(star((2,)))
        assert p.elements == frozenset({-2, 2})
        assert p.components == ((-2, 2),)

    def test_orbit_triple_packet(self):
        p = packet_B(normalize_orbit((-3, 2, 1)))
        assert [format_element(e) for e in p.components[0]] == \
            ["[-2,-1]", "[-3,2]", "[-3,1]"]

    def test_star_triple_packet(self):
        p = packet_B(star((2, 1)))
        assert [format_element(e) for e in p.components[0]] == \
            ["[-2,-1]", "[2,*]", "[-2,1]", "[1,*]"]

    def test_star_level4_packet_is_full_level3_ground(self):
        p = packet_B(star((3, 2, 1)))
        assert list(p.components[0]) == enumerate_B(3, 3)

    def test_components_partition_elements(self):
        for n in (2, 3, 4):
            for level in (2, 3, 4):
                from bruhatb.core import _level_elements
                for K in _level_elements(n, level):
                    p = packet_B(K)
                    flat = [e for chain in p.components for e in chain]
                    assert len(flat) == len(set(flat))
                    assert set(flat) == set(p.elements)

    def test_level_bounds(self):
        with pytest.raises(UnsupportedLevelError):
            packet_B(star((4, 3, 2, 1)))


class TestTextRoundTrip:
    @pytest.mark.parametrize("text", ["[-3,2]", "[2,1,*]", "{1,2}", "-2", "3",
                                      "[-3,-1,2]", "[3,*]", "[-4,-3,-2,1]",
                                      "[3,2,1,*]"])
    def test_round_trip(self, text):
        assert format_element(parse_element(text)) == text

    def test_round_trip_whole_grounds(self):
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3):
                for e in enumerate_B(n, k):
                    assert parse_element(format_element(e)) == e
            for k in (1, 2, 3):
                if k <= n:
                    for e in enumerate_A(n, k):
                        assert parse_element(format_element(e)) == e

    def test_non_preferred_orbit_normalizes(self):
        assert format_element(parse_element("[3,-2]")) == "[-3,2]"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parse_element("0")

    @pytest.mark.parametrize("text", ["[*]", "[5]", "[-5]", "[-4,-3,-2,-1,5]",
                                      "[4,3,2,1,*]"])
    def test_rejects_brackets_outside_levels_2_to_4(self, text):
        with pytest.raises(ValueError):
            parse_element(text)


class TestStandardKey:
    def test_star_substitution_has_no_ties(self):
        for n in (2, 3, 4, 5):
            for k in (2, 3):
                keys = [standard_key(e) for e in enumerate_B(n, k)]
                assert len(set(keys)) == len(keys)
                assert keys == sorted(keys)
