"""
Signed permutations, roots, and reduced words
=============================================

The level-1 flip poset realized on the hyperoctahedral group: orderings as
signed permutations, level-2 elements as positive roots, and maximal chains
as reduced words for the longest element.
"""

from bruhatb import (
    braid_classify,
    build_poset,
    chain_to_word,
    check_root_inversions,
    enumerate_B,
    format_element,
    iso_check,
    maximal_chains,
    order_to_perm,
    reduced_words_brute,
    rho_max,
    rho_min,
    root_of,
    weyl_inversions,
)

# An admissible ordering of J_n corresponds to the signed permutation
# sending the element in slot i to i (slots run -n..-1, 1..n).
print("pi(rho_min) =", order_to_perm(rho_min("B", 3, 1)))
print("pi(rho_max) =", order_to_perm(rho_max("B", 3, 1)))

# Level-2 elements biject with the n^2 positive roots.
for K in enumerate_B(2, 2):
    print(f"{format_element(K)} -> {root_of(K)}")

# Inversion sets on both sides agree under that dictionary.
pi = order_to_perm(rho_max("B", 2, 1))
print("root inversions of w0:", sorted(str(r) for r in weyl_inversions(pi)))
print("dictionary consistent at n=3:", check_root_inversions(3))

# The flip poset at level 1 is the weak left order, edge for edge.
print("poset isomorphism at n=3:", iso_check(3))

# Each maximal chain replays as a word in the simple reflections
# (s0 negates index 1, s_i swaps indices i and i+1).
chain = maximal_chains(build_poset("B", 2, 1))[0]
word = chain_to_word(chain, "B", 2)
print("chain:", " < ".join(format_element(K) for K in chain))
print("word (applied left to right):", word.as_applied())
print("reduced:", word.is_reduced(), "evaluates to", word.evaluate())

# Chain counts match a brute-force reduced-word search.
print("chains at n=3:", len(maximal_chains(build_poset("B", 3, 1))),
      "= reduced words:", len(reduced_words_brute("B", 3)))

# Flips one level up act on words as braid moves: orbit elements give
# s t s = t s t, star elements the longer s t s t = t s t s.
print("arity of [-3,2,1]:", braid_classify(enumerate_B(3, 3)[-1]))
print("arity of [2,1,*]:", braid_classify(enumerate_B(2, 3)[0]))
