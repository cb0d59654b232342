"""Cartan projections and flag maps.

Decomposes elements of GL_n and O(p,q) as compact * chamber * compact,
reads off root gaps, and follows the flag map of a proximal isometry to
its attracting line.
"""

import numpy as np

from anoctl.cartan import exterior_power, kak, mu_gaps, xi_theta
from anoctl.forms import dist_projective, make_witt_form
from anoctl.presets import o21_boost, o21_rotation
from anoctl.roots import ThetaSet, build_root_system

rng = np.random.default_rng(0)

# GL_5: mu is the vector of log singular values.
g = rng.standard_normal((5, 5))
rs_a = build_root_system("A", 4)
dec = kak(g)
print("mu(g) for a random g in GL_5:", np.round(dec.mu.values, 3))
print("simple root gaps:", {k: round(v, 3)
                            for k, v in mu_gaps(dec.mu, rs_a).items()})
print("reconstruction error:",
      np.linalg.norm(dec.reconstruct() - g) / np.linalg.norm(g))

# The exterior-power gap identity: the top gap of the i-th wedge equals
# the i-th gap of the original element.
gaps = mu_gaps(dec.mu, rs_a)
for i in (1, 2, 3):
    mu_w = kak(exterior_power(g, i)).mu.values
    print(f"  wedge {i}: top gap {mu_w[0] - mu_w[1]:.6f}"
          f"  vs  gap alpha_{i} = {gaps[i]:.6f}")

# O(2,1): a hyperbolic isometry conjugated into general position; its
# flag map converges to the attracting line, which is the top
# eigenvector.
form = make_witt_form(2, 1)
rs_b = build_root_system("B", 1)
theta = ThetaSet(rs_b, frozenset({1}))
k = o21_rotation(0.9)
h = k @ o21_boost(1.0) @ np.linalg.inv(k)
vals, vecs = np.linalg.eig(h)
top = np.real(vecs[:, np.argmax(np.abs(vals))])
print("\nO(2,1) hyperbolic element, flag of h^n vs eigenline:")
for n in (1, 3, 6, 10):
    flag = xi_theta(np.linalg.matrix_power(h, n), theta, form)
    from anoctl.forms import Frame
    d = dist_projective(flag, Frame.from_spanning(top))
    print(f"  n = {n:2d}: distance {d:.2e}")
