"""Where the collapse model breaks the classical bound.

Scans the predicted conditional-form margin over question-angle gaps,
prints the closed-form optimum, and confirms it with the built-in search.
"""

import math

import numpy as np

from belltest import (
    QuestionTriple,
    maximize_quantum_violation,
    predicted_conditional_triple,
    wigner_conditional_check,
)
from belltest.qubit import OPTIMUM

print("margin as the gap c - a sweeps with b - a fixed at 2*pi/3:\n")
for gamma_deg in range(0, 360, 30):
    gamma = math.radians(gamma_deg)
    q = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, gamma)
    margin = wigner_conditional_check(predicted_conditional_triple(q)).margin
    bar = "#" * int(20 * (margin + 0.3))
    print(f"  c - a = {gamma_deg:3d} deg   margin {margin:+.4f}  {bar}")

triple = predicted_conditional_triple(OPTIMUM)
margin = wigner_conditional_check(triple).margin
print(f"\nclosed-form optimum: margin {margin:+.6f} at gaps (b-a, c-a) = "
      f"({math.degrees(OPTIMUM.b.phi):.1f} deg, {math.degrees(OPTIMUM.c.phi):.1f} deg)")
print(f"conditional triple there: {np.round(tuple(triple), 6)}")
result = maximize_quantum_violation(grid_steps=360, refine_tol=1e-9)
print(f"search over a 360 x 360 grid: margin {result.best_margin:+.6f}, "
      f"{'the same angles' if result.best_angles == OPTIMUM else 'other angles'}")
print("a symmetrized classical law never pushes this margin below 0; the model reaches -0.25")
