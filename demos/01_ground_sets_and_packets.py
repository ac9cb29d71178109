"""
Ground sets, orbit normalization, and packets
=============================================

A walk through the raw combinatorial material: the type A ground sets
(k-subsets of {1..n} in lexicographic order), their type B counterparts over
the signed index set, and the packets that tie one level to the next.
"""

from bruhatb import (
    enumerate_A,
    enumerate_B,
    format_element,
    normalize_orbit,
    packet_A,
    packet_B,
    star,
)

# Type A level k is just the k-subsets of {1..n}, smallest first.
print("C(I_4, 2):", [format_element(S) for S in enumerate_A(4, 2)])

# The packet of a (k+1)-subset collects its k-element faces.
print("packet of {1,2,3}:", sorted(packet_A((1, 2, 3)).elements))

# Type B works over J_n = {-n..-1, 1..n}.  Level-2 elements are either
# negation orbits of signed pairs with distinct absolute values, or a
# positive support with a star.  Orbits are stored by the representative
# whose largest-magnitude entry is negative:
print("orbit of {3,-2} ->", normalize_orbit({3, -2}))
print("orbit of {-1,2} ->", normalize_orbit({-1, 2}))

# The standard order puts two-negative orbits first (lexicographically),
# then the rest ordered by negative entry, with stars slotted in through
# the substitution [a,*] ~ [-a,a]:
print("C_B(J_3, 2):", " < ".join(format_element(e) for e in enumerate_B(3, 2)))
print("C_B(J_3, 3):", " < ".join(format_element(e) for e in enumerate_B(3, 3)))

# A level-2 orbit's packet is a set of signed indices falling into two
# comparable chains; a star's packet is a single two-element chain.
p = packet_B(normalize_orbit((-3, 2)))
print("packet of [-3,2]:", sorted(p.elements), "chains:", p.components)
p = packet_B(star((2,)))
print("packet of [2,*]:", sorted(p.elements), "chains:", p.components)

# One level up the packets are totally ordered by restriction of the
# standard order.
p = packet_B(star((2, 1)))
print("packet of [2,1,*]:",
      " < ".join(format_element(e) for e in p.components[0]))
p = packet_B(normalize_orbit((-3, 2, 1)))
print("packet of [-3,2,1]:",
      " < ".join(format_element(e) for e in p.components[0]))
