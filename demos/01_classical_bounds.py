"""Why a single classical law can never violate the bounds.

Walks through the three inequality forms on a few hand-picked laws, then
fuzzes the whole simplex to show the margins stay non-negative.
"""

import numpy as np

from belltest import (
    CondTriple,
    JointDistribution3,
    Outcome,
    VariableIndex,
    bell_covariance_check,
    conditional,
    random_joint,
    symmetrize,
    wigner_conditional_check,
    wigner_joint_check,
)

A_PLUS, B_PLUS = (VariableIndex.A, Outcome.PLUS), (VariableIndex.B, Outcome.PLUS)
C_PLUS, B_MINUS = (VariableIndex.C, Outcome.PLUS), (VariableIndex.B, Outcome.MINUS)


def conditional_triple(joint):
    """The three conditionals of the conditional form, read off the law."""
    return CondTriple(conditional(joint, A_PLUS, B_PLUS),
                      conditional(joint, C_PLUS, B_MINUS),
                      conditional(joint, A_PLUS, C_PLUS))


def show(name, joint):
    bell = bell_covariance_check(joint)
    joint_form = wigner_joint_check(joint)
    cond = wigner_conditional_check(conditional_triple(symmetrize(joint)))
    print(f"{name:32s} covariance {bell.margin:+.4f}   "
          f"joint {joint_form.margin:+.4f}   conditional(sym) {cond.margin:+.4f}")


print("margins per law (negative would mean violation)\n")
show("perfectly correlated", JointDistribution3.from_atoms({(1, 1, 1): 0.5, (-1, -1, -1): 0.5}))
show("uniform / independent", JointDistribution3.uniform())
show("point mass on (+,+,-)", JointDistribution3.point_mass((1, 1, -1)))

rng = np.random.default_rng(0)
n = 20_000
worst = min(
    min(
        bell_covariance_check(j := random_joint(rng)).margin,
        wigner_joint_check(j).margin,
        wigner_conditional_check(conditional_triple(symmetrize(j))).margin,
    )
    for _ in range(n)
)
print(f"\nworst margin over {n} random laws: {worst:+.2e}  (never below zero)")
