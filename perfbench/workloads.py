"""Workload definitions and the seeded input generator.

A workload is one CLI session: ``divergence``, ``limitset`` and
``domain`` on one generator set.  The bundled presets take no seeded
input; their domain runs use a fixed sampler seed, so every output can
be compared byte for byte with a recorded reference.  ``pingpong-o32``
conjugates a fixed ping-pong pair by a random element drawn from the
workload seed, which also seeds its domain sampler.
"""

from __future__ import annotations

import json

import numpy as np

# mu = (6, 2) for the O(3,2) ping-pong generators; see pingpong_pair.
PINGPONG_MU = (6.0, 2.0)
PINGPONG_FORM = (3, 2)
# The four attracting and repelling lines of a, b are at least this far
# apart (sine of the angle).
PINGPONG_MIN_SEPARATION = 0.5
# Seed of the fixed relative position of the ping-pong generators.
PINGPONG_GEOMETRY_SEED = 0
# The domain sampler seed of the bundled presets.
PRESET_SAMPLER_SEED = 0


class Workload:
    def __init__(self, name, gens, form, radii, samples=None):
        self.name = name
        self.gens = gens            # "builtin:<name>" or "generated"
        self.form = form            # "P,Q" for generated pairs, else None
        self.radii = radii          # command -> radius
        self.samples = samples      # domain --samples, None for the default

    def commands(self, gens_arg, seed):
        """The session's argument lists, without --out."""
        base = ["--gens", gens_arg] + (["--form", self.form] if self.form else [])
        sampler_seed = seed if self.gens == "generated" else PRESET_SAMPLER_SEED
        domain = ["domain", *base, "--radius", str(self.radii["domain"]),
                  "--seed", str(sampler_seed)]
        if self.samples is not None:
            domain += ["--samples", str(self.samples)]
        return [
            ["divergence", *base, "--radius", str(self.radii["divergence"])],
            ["limitset", *base, "--radius", str(self.radii["limitset"])],
            domain,
        ]


# Radii keep a session under 16 s, so a 30 s run repeats it; README.md
# gives the reasons for each workload and each cap.
WORKLOADS = {
    w.name: w for w in [
        # discrete preset: per-element KAK and full-ball orbit coverage
        Workload("schottky-o21", "builtin:schottky-o21", None,
                 {"divergence": 7, "limitset": 7, "domain": 6}, samples=10),
        # non-discrete preset: dedup window, merge loop, line-path scans
        Workload("mixed-o21", "builtin:mixed-o21", None,
                 {"divergence": 6, "limitset": 7, "domain": 5}),
        # 2-plane domain points: general-frame principal-angle paths;
        # domain radius 4 trips a rank drop in orbit_coverage (README.md)
        Workload("pingpong-o32", "generated", "3,2",
                 {"divergence": 6, "limitset": 6, "domain": 3}, samples=50),
    ]
}


def witt_pm_basis(p, q):
    """Orthogonal C with C^T G C = diag(+1_p, -1_q) for the Witt gram G
    that pairs coordinate i with coordinate n+1-i.  (anoctl.cartan has the
    same function; the inputs are built without the program under test.)"""
    n = p + q
    c = np.zeros((n, n))
    r = 1.0 / np.sqrt(2.0)
    for i in range(q):
        c[i, i] = c[n - 1 - i, i] = r
        c[i, p + i], c[n - 1 - i, p + i] = r, -r
    for j in range(q, p):
        c[j, j] = 1.0
    return c


def _haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_compact(rng, p, q):
    """Random element of O(p) x O(q), written in Witt coordinates."""
    block = np.zeros((p + q, p + q))
    block[:p, :p] = _haar_orthogonal(rng, p)
    block[p:, p:] = _haar_orthogonal(rng, q)
    c = witt_pm_basis(p, q)
    return c @ block @ c.T


def _separated_pair(rng, p, q, chamber):
    """Conjugates k A k^-1 of the chamber element by draws from the
    maximal compact subgroup, redrawn until the attracting and repelling
    lines of both generators are pairwise separated (a ping-pong pair)."""
    n = p + q
    while True:
        ks = [_random_compact(rng, p, q) for _ in range(2)]
        lines = np.stack([k[:, i] for k in ks for i in (0, n - 1)])
        cos = np.abs(lines @ lines.T)
        np.fill_diagonal(cos, 0.0)
        if np.sqrt(1.0 - np.max(cos) ** 2) >= PINGPONG_MIN_SEPARATION:
            return [k @ chamber @ k.T for k in ks]


def pingpong_pair(seed):
    """A ping-pong pair in O(3,2) of two conjugates of the chamber element
    with mu = (6, 2), conjugated as a whole by a random element of the
    maximal compact subgroup drawn from the seed.

    The relative position of the two generators comes from a fixed draw,
    so the group, its Cartan projections and with them the amount of
    work are the same for every seed; the matrices, the limit flags and
    the sampled domain points change with it."""
    p, q = PINGPONG_FORM
    n = p + q
    d = np.ones(n)
    d[:q] = np.exp(PINGPONG_MU)
    d[n - q:] = np.exp(-np.array(PINGPONG_MU[::-1]))
    base = _separated_pair(np.random.default_rng(PINGPONG_GEOMETRY_SEED),
                           p, q, np.diag(d))
    k = _random_compact(np.random.default_rng(seed), p, q)
    return [(name, k @ m @ k.T) for name, m in zip("ab", base)]


def write_generators(pair, path):
    entries = [{"name": name, "rows": m.shape[0], "cols": m.shape[1],
                "data": [float(x) for x in m.reshape(-1)]} for name, m in pair]
    with open(path, "w") as fh:
        json.dump(entries, fh)
