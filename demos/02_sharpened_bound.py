"""The pointwise bound, and why the gradient of the modulus is the right
left-hand side.

For holomorphic f: B_n -> B_m the slope of |f| obeys

    |grad|f||(z) <= (1 - |f(z)|^2) / (1 - |z|^2).

The naive analogue with the full derivative norm |f'(z)| in place of the
modulus gradient is false: f(z) = (z, 1)/sqrt(2) breaks it at the origin.
"""

import numpy as np

from holoball import counterexample_map, mod_grad, sp_bound
from holoball.complexcore import spectral_norm

f = counterexample_map()
z = np.zeros(1)

classical = spectral_norm(f.jacobian(z)).value
rep = sp_bound(f, z)

print("f(z) = (z, 1)/sqrt(2) at z = 0")
print(f"  |f(0)|          = {np.sqrt((np.abs(f.eval(z))**2).sum()):.6f}")
print(f"  rhs 1 - |f|^2   = {rep.rhs:.6f}")
print(f"  |f'(0)|         = {classical:.6f}   exceeds rhs by {classical - rep.rhs:.6f}")
print(f"  |grad|f||(0)    = {rep.lhs:.6f}   bound holds: {rep.holds}")

# the same map checked along a few points of the disk
print("\nalong the real axis:")
for x in (0.0, 0.3, 0.6, 0.9):
    rep = sp_bound(f, [x])
    print(f"  x = {x:.1f}:  lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  "
          f"slack = {rep.slack:.6f}  [{rep.branch}]")

# equality is attained by disk automorphisms at every point
from holoball import MobiusMap

phi = MobiusMap(-1.0, 0.4 + 0.2j)  # (b - z) / (1 - conj(b) z), swapping b and 0
print("\ndisk automorphism phi_{0.4+0.2i}:")
for x in (-0.5, 0.0, 0.5):
    rep = sp_bound(phi, [x])
    print(f"  x = {x:+.1f}:  lhs = {rep.lhs:.12f}  rhs = {rep.rhs:.12f}  "
          f"slack = {rep.slack:+.1e}")
