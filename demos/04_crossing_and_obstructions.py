"""
Crossing, blocking, and the obstruction cases
=============================================

The machinery that certifies gradedness at level 2: a linear-time test for
whether two elements can exchange order inside a commutation class, the
blocking criterion for flip availability, and the seven sandwich patterns
that pin down every blocked flip.
"""

from bruhatb import (
    blocks,
    canonical_form,
    case_report,
    class_flip_candidates,
    classify_blocked_flip,
    crosses,
    enumerate_admissible,
    format_element,
    minimal_chain,
    normalize_orbit,
    packet_B,
    rho_min,
    standard_cases,
    star,
)
from bruhatb.orders import inversion_set
from bruhatb.core import enumerate_B

# Two elements cross when some member of the commutation class reverses
# them.  Commuting neighbours cross trivially; elements chained together by
# non-commuting links never do.
base = rho_min("B", 3, 2)
print("[-2,-1] x [3,*]:", crosses(base, normalize_orbit((-2, -1)), star((3,))))
print("[-3,-2] x [-3,-1]:",
      crosses(base, normalize_orbit((-3, -2)), normalize_orbit((-3, -1))))

# A flip at K is available somewhere in the class exactly when no element
# is trapped inside the interval spanned by a component of K's packet in
# every member: no element lies strictly between two elements of one
# component in the dependence order.  class_flip_candidates, the test that
# build_poset runs, decides this on the dependence order, without listing
# the members.
K = normalize_orbit((-3, 2, 1))
S = packet_B(K).elements
print("interval around P_B([-3,2,1]):",
      [format_element(e) for e in minimal_chain(base, S)])
print("[3,*] blocks it:", blocks(base, star((3,)), S))
print("flip available:", K in class_flip_candidates(canonical_form(base)))

# When a flip is blocked and not yet inverted, one of seven sandwich
# patterns holds across the whole class.
for rho in enumerate_admissible("B", 3, 2):
    available = class_flip_candidates(canonical_form(rho))
    blocked = [K for K in enumerate_B(3, 3)
               if K not in available and K not in inversion_set(rho)]
    if blocked:
        case_id, x = classify_blocked_flip(rho, blocked[0])
        print("example:", rho)
        print(f"  {format_element(blocked[0])} blocked, pattern {case_id}, "
              f"witness x={x}")
        break

# Each pattern is certified over the admissible orderings of its ambient
# double packet that keep the pattern's pinned pairs: every one of them
# exhibits a smaller or later packet that cannot cross back.  The counts are
# the orientations of the packets the pattern leaves open, those realised,
# and the orderings checked.
for case in standard_cases():
    rep = case_report(case)
    print(f"{case.case_id}: ok={rep.ok} "
          f"(orientations={rep.orientations}, acyclic={rep.acyclic}, "
          f"extensions={rep.extensions})")
