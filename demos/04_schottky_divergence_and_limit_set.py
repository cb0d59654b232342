"""A ping-pong pair in O(2,1): word balls, divergence, and the limit set.

Enumerates the group ball of the bundled Schottky pair, fits the growth
of the smallest root gap per sphere, samples the limit set on the
isotropic cone, and writes an SVG scatter of the sample.
"""

import os

from anoctl.limits import (
    sample_limit_set,
    sample_to_svg,
    transversality_report,
)
from anoctl.presets import schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import divergence_profile, enumerate_ball, \
    fit_divergence_slope, proximal_elements

form, gens = schottky_o21()
rs = build_root_system("B", 1)
theta = ThetaSet(rs, frozenset({1}))

ball = enumerate_ball(gens, 6)
print(f"ball of radius 6: {len(ball)} elements")

profile = divergence_profile(ball, rs, form)
print("\nminimum root gap per sphere:")
for entry in profile.per_radius:
    print(f"  radius {entry.radius}: {entry.min_gap[1]:8.3f}"
          f"  at word {entry.argmin_word[1]!r}")
slope, shape = fit_divergence_slope(profile, 1)
print(f"fitted slope {slope:.2f} ({shape}); affine growth is the "
      "expected behavior of a convex cocompact group")

# Every nontrivial element is proximal; attracting lines accumulate on
# the limit set.
prox = proximal_elements(ball, gap_threshold=1.0)
print(f"\nproximal elements: {len(prox)} of {len(ball) - 1} nontrivial")

sample = sample_limit_set(ball, theta, form, min_gap=1.0)
print(f"limit sample: {len(sample)} merged flags, covering radius "
      f"{sample.covering_radius():.2e}")
report = transversality_report(sample, form)
print(f"transversality margin over {report.pairs_tested} pairs: "
      f"{report.margin:.3e}")

here = os.path.dirname(os.path.abspath(__file__))
out = os.path.join(here, "out")
os.makedirs(out, exist_ok=True)
path = os.path.join(out, "schottky_limit_set.svg")
with open(path, "w") as fh:
    fh.write(sample_to_svg(sample, chart=(0, 1)))
# relative to the repository root, so that the text does not depend on
# where the checkout lies
print("scatter written to", os.path.relpath(path, os.path.dirname(here)))
