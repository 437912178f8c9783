"""Where the collapse model breaks the classical bound.

Scans the predicted conditional-form margin over question-angle gaps,
prints the analytic optimum, and confirms it with the built-in search.
"""

import math

import numpy as np

from belltest import (
    QuestionTriple,
    maximize_quantum_violation,
    predicted_conditional_triple,
    wigner_conditional_check,
)

print("margin as the gap c - a sweeps with b - a fixed at 2*pi/3:\n")
for gamma_deg in range(0, 360, 30):
    gamma = math.radians(gamma_deg)
    q = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, gamma)
    margin = wigner_conditional_check(predicted_conditional_triple(q)).margin
    bar = "#" * int(20 * (margin + 0.3))
    print(f"  c - a = {gamma_deg:3d} deg   margin {margin:+.4f}  {bar}")

result = maximize_quantum_violation(grid_steps=360, refine_tol=1e-9)
b, c = result.best_angles.b.phi, result.best_angles.c.phi
print(f"\nsearch optimum: margin {result.best_margin:+.6f} at gaps "
      f"(b-a, c-a) = ({math.degrees(b):.1f} deg, {math.degrees(c):.1f} deg)")
triple = predicted_conditional_triple(result.best_angles)
print(f"conditional triple there: {np.round(tuple(triple), 6)}")
print("a classical law can never push this margin below 0; the model reaches -0.25")
