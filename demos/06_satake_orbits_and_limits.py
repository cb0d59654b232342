"""Boundary orbits of symmetric-space embeddings and chamber limits.

Embeds symmetric spaces into projective Hermitian matrices, decomposes
the boundary into orbits indexed by admissible sets, and cross-checks
chamber-sequence limits combinatorially and numerically.  The last part
touches the subalgebra realization inside the Lie-algebra Grassmannian.
"""

import numpy as np

from anoctl.domain import subalgebra_kernel_dimension, subalgebra_point
from anoctl.forms import make_witt_form
from anoctl.roots import ChamberThresholds, ThetaSet, build_root_system
from anoctl.satake import (
    MatrixGroup,
    TauSpec,
    orbit_decomposition,
    satake_embed,
    satake_limit,
    support_of,
    eps_to_root_coords,
)

# The embedding sends gK to the projectivization of tau(g) tau(g)^T.
print("embedding of diag(2, 1/2) under the defining representation:")
print(np.round(satake_embed(np.diag([2.0, 0.5]), TauSpec.identity()).hermitian, 4))

# Supports: the wedge-q representation of O(p,q) has support {alpha_q};
# the adjoint representation pairs with the distinguished root(s).
b2 = build_root_system("B", 2)
chi = eps_to_root_coords(b2, [1, 1])
print("\nsupport of the wedge-2 embedding of O(3,2):",
      set(support_of(b2, chi).members))
a2 = build_root_system("A", 2)
print("support of the adjoint embedding of sl_3:",
      set(support_of(a2, a2.table1.chi_G_coeffs).members))

# Orbit decomposition: one orbit per admissible set, with the open orbit
# at the empty set and the closed one at the full set.
print("\norbits of the wedge-2 compactification of O(3,2):")
for orb in orbit_decomposition(b2, ThetaSet(b2, frozenset({2}))):
    kind = "open" if orb.is_open else ("closed" if orb.is_closed else "middle")
    print(f"  theta {set(orb.theta.sorted_members) or '{}'}"
          f"  nucleus {set(orb.theta_dd.sorted_members) or '{}'}  ({kind})")

# Chamber limits, evaluated twice: by classifying the pairings and by
# the numeric matrix limit; the rank of the limit matrix identifies the
# orbit.
group = MatrixGroup(5, make_witt_form(3, 2))
thresholds = ChamberThresholds(divergence=30.0)
print("\nchamber sequences in O(3,2) under the wedge-2 embedding:")
for label, seq in (
        ("constant", [np.array([1.5, 0.5])] * 10),
        ("alpha_1 diverges", [np.array([2.0 * n + 1.0, 1.0]) for n in range(60)]),
        ("both diverge", [np.array([3.0 * n + 1.0, n + 0.5]) for n in range(60)])):
    lim = satake_limit(b2, ThetaSet(b2, frozenset({2})), seq,
                       TauSpec.exterior(2), group, thresholds)
    print(f"  {label}: theta {set(lim.orbit.theta.sorted_members) or '{}'}"
          f"  rank {lim.numeric_rank} (predicted {lim.predicted_rank})")

# The subalgebra picture: boundary points are spans k_theta + u_theta in
# the Lie algebra, and the kernel of the Killing form on them is exactly
# the nilradical.
print("\nsubalgebra boundary points of sl_3:")
rs = a2
for members in (frozenset(), frozenset({1}), frozenset({1, 2})):
    pt = subalgebra_point("sl3", ThetaSet(rs, members))
    print(f"  theta {set(members) or '{}'}: dim {pt.basis.k}, "
          f"killing kernel {subalgebra_kernel_dimension(pt)}")
