"""Certifying a properly discontinuous domain at desk scale.

Membership in the quadric compactification, bad-set tests against the
sampled limit set, the dynamical-relation scan (empty for the Schottky
pair, loud for a non-discrete control), and expansion certificates.
"""

import numpy as np

from anoctl.domain import (
    dynamical_relation_scan,
    expansion_certificate,
    gaussian_domain_sampler,
    in_Xbar,
    in_bad_set,
)
from anoctl.forms import Frame
from anoctl.limits import sample_limit_set
from anoctl.presets import mixed_o21, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball

rs = build_root_system("B", 1)
theta = ThetaSet(rs, frozenset({1}))
form, gens = schottky_o21()

# Membership and strata: interior points are negative lines, boundary
# points are isotropic.
print("interior:", in_Xbar(Frame.from_spanning(np.array([1.0, 0, -1])), form))
print("boundary:", in_Xbar(Frame.standard(3, [0]), form))

ball = enumerate_ball(gens, 6)
sample = sample_limit_set(ball, theta, form, min_gap=1.0)

# The sampler is an endless stream of points of the compactification.
points = gaussian_domain_sampler(form, np.random.default_rng(1))
interior = []
while len(interior) < 200:
    pt = next(points)
    if pt.is_interior:
        interior.append(pt)
hits = sum(in_bad_set(pt, sample)[0] for pt in interior)
print(f"\nbad-set hits among {len(interior)} interior points: {hits}")

flags = dynamical_relation_scan(interior[:60], ball, sample)
print(f"relation flags for the Schottky pair: {len(flags)}")

# The control group mixes a boost with an infinite-order rotation: its
# long words keep returning to the interior, which the scan flags.
formx, gensx = mixed_o21()
ballx = enumerate_ball(gensx, 6)
samplex = sample_limit_set(ballx, theta, formx, min_gap=1.0)
clean = [p for p in interior[:40] if not in_bad_set(p, samplex)[0]]
flagsx = dynamical_relation_scan(clean, ballx, samplex)
print(f"relation flags for the non-discrete control: {len(flagsx)}")
small_gap = [(word, gap, residual) for word, gap, residual
             in zip(flagsx["word"], flagsx["min_gap"], flagsx["residual"])
             if gap < 1.0]
if small_gap:
    word, gap, residual = small_gap[0]
    print(f"  example: word {word!r} with gap {gap:.2f} "
          f"left a point at residual {residual:.3f}")

# Expansion certificates around sampled limit flags: inverses of the
# quasigeodesic ray expand incidence distances near the flag.
print("\nexpansion certificates (factor 2):")
for word, cols in zip(sample.words, sample.columns[:4]):
    ray = [word[:k] for k in range(1, len(word) + 1)]
    res = expansion_certificate(Frame(cols), ray, ball, c=2.0,
                                rng=np.random.default_rng(5))
    print(f"  flag {word!r}: certified by {res.word!r} on "
          f"radius {res.neighborhood_radius:g} with factor {res.factor:.2f}")
