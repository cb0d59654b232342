"""Command-line entry point: anoctl <command> [options].

Commands: cartan, ball, divergence, limitset, domain, orbits, table1.
Configuration comes from an optional key = value file plus flag
overrides; a fixed seed makes every report byte-reproducible (SVG output
carries no timestamps).  Exit code is 0 iff no error records were
produced.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .cartan import GapTooSmallError, flag_frame, flag_theta, kak, mu_gaps, \
    restricted_roots, witt_pm_basis
from .domain import (
    ACCUMULATION_TOL,
    bad_set_witnesses,
    dynamical_relation_scan,
    expansion_certificates,
    gaussian_domain_sampler,
    in_Xbar,
    orbit_coverage,
)
from .forms import Frame, dump_json, make_witt_form, matrix_from_json
from .limits import (
    EmptyLimitSampleError,
    sample_limit_set,
    sample_to_csv,
    sample_to_svg,
    transversality_report,
)
from .presets import BUILTIN_GENERATORS
from .roots import ThetaSet, build_root_system, table1_rows
from .words import DEDUP_TOL, CapExceededError, divergence_profile, \
    enumerate_ball, fit_divergence_slope

SCHEMA_VERSION = 1


class RunConfig:
    """One run's settings: the class defaults below, overridden by
    keyword; each annotation names the cast that build_config applies to
    a value given as text."""
    command: str = ""
    config: str = ""
    form: str = "2,1"
    gens: str = "builtin:schottky-o21"
    radius: int = 6
    cap: int = 100000
    tol: float = 1e-9
    seed: int = 0
    # the output directory is the one setting that may come from the
    # environment; everything else is file/flag only
    out: str = os.environ.get("ANOCTL_OUT", ".")
    samples: int = 200
    min_gap: float = 1.0
    xi_root: int = 1
    chart: str = "0,1"
    report: str = ""
    type: str = "A"
    rank: int = 2
    support: str = "adjoint"
    scan_points: int = 100
    expansion_flags: int = 8
    expansion_factor: float = 2.0

    def __init__(self, **values):
        for name, value in values.items():
            if name not in _FIELD_TYPES:
                raise TypeError(f"RunConfig got an unexpected keyword argument {name!r}")
            setattr(self, name, value)
        for name in ("tol", "min_gap", "expansion_factor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("seed", "samples", "scan_points", "expansion_flags"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")

    def parsed_form(self):
        parts = self.form.split(",")
        if len(parts) not in (2, 3) or \
                parts[2:] and parts[2].strip().upper() != "C":
            raise ValueError(f"form must be P,Q or P,Q,C, got {self.form!r}")
        p, q = int(parts[0]), int(parts[1])
        return make_witt_form(p, q, "complex" if parts[2:] else "real")

    def rng(self):
        return np.random.default_rng(self.seed)


_FIELD_TYPES = RunConfig.__annotations__
_CASTS = {"int": int, "float": float, "str": str}


def load_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def build_config(args):
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key, val in vars(args).items():
        if key in ("config",) or val is None:
            continue
        values[key] = val
    kwargs = {}
    for key, val in values.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = _CASTS[_FIELD_TYPES[key]](val) if isinstance(val, str) else val
    if args.config:
        kwargs["config"] = args.config
    return RunConfig(**kwargs)


def load_generators(config):
    """Generator list from a builtin name or a JSON file of named
    matrices; returns (form_or_None, [(name, matrix), ...])."""
    source = config.gens
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTIN_GENERATORS:
            raise ValueError(f"unknown builtin {name!r}; "
                             f"available: {sorted(BUILTIN_GENERATORS)}")
        return BUILTIN_GENERATORS[name]()
    with open(source) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("generators")
    keys = {"name", "rows", "cols", "data"}
    if not isinstance(data, list) or not data or not all(
            isinstance(d, dict) and keys <= set(d) for d in data):
        raise ValueError(f"{source}: expected a non-empty list of matrices "
                         "with name, rows, cols and data")
    gens = []
    for d in data:
        try:
            gens.append((d["name"], matrix_from_json(d)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"generator {d['name']!r} in {source}: {exc}") from None
    return None, gens


def _named_matrices(config, fit_form=True):
    """A builtin preset brings its own form, which a --form (the default
    "2,1" included) must not contradict; a file takes the --form.  With
    ``fit_form``, file generators that agree in size with each other
    (enumerate_ball names one that does not) must be n x n for the
    form's n."""
    form, gens = load_generators(config)
    if config.form:
        given = config.parsed_form()
        if form is None:
            form = given
        elif (given.p, given.q, given.is_complex) != \
                (form.p, form.q, form.is_complex):
            raise ValueError(f"form {config.form} contradicts {config.gens}, "
                             f"whose form is {form.p},{form.q}"
                             f"{',C' if form.is_complex else ''}")
    shapes = {mat.shape for _, mat in gens}
    if fit_form and form is not None and len(shapes) == 1 and \
            shapes != {(form.n, form.n)}:
        name, mat = gens[0]
        raise ValueError(f"generator {name!r} in {config.gens} is "
                         f"{'x'.join(map(str, mat.shape))} but form "
                         f"{config.form} needs {form.n}x{form.n}")
    return form, gens


# ---------------------------------------------------------------------------
# commands


def cmd_cartan(config):
    # each matrix that does not fit the form is its own error record
    form, named = _named_matrices(config, fit_form=False)
    n = named[0][1].shape[0] if form is None else form.n
    theta = flag_theta(form, n, config.xi_root)
    rs = theta.root_system
    records, errors = [], []
    for name, mat in named:
        try:
            if mat.shape[0] != n:
                raise ValueError(f"g must be {n}x{n}")
            dec = kak(mat, form)
        except ValueError as exc:
            errors.append({"name": name, "error": str(exc)})
            continue
        record = {
            "name": name,
            "mu": [float(x) for x in dec.mu.values],
            "gaps": {f"alpha_{k}": v for k, v in mu_gaps(dec.mu, rs).items()},
        }
        try:
            record["flag_frame"] = flag_frame(dec, theta, form, config.tol).to_json()
        except GapTooSmallError as exc:
            record["flag_error"] = str(exc)
        records.append(record)
    report = {"schema_version": SCHEMA_VERSION, "records": records,
              "errors": errors}
    dump_json(report, os.path.join(config.out, "cartan.json"))
    print(f"cartan: {len(records)} records, {len(errors)} errors "
          f"-> {config.out}/cartan.json")
    return 1 if errors else 0


def _enumerate(config, gens):
    try:
        return enumerate_ball(gens, config.radius, cap=config.cap), False
    except CapExceededError as exc:
        return exc.ball, True


def cmd_ball(config):
    form, gens = _named_matrices(config)
    ball, truncated = _enumerate(config, gens)
    from .forms import matrix_to_json
    report = {
        "schema_version": SCHEMA_VERSION,
        "radius": ball.radius,
        "truncated": truncated,
        "dedup_tol": DEDUP_TOL,
        "elements": [{"word": w, "word_length": r, **matrix_to_json(m)}
                     for w, m, r in ball.elements],
    }
    path = os.path.join(config.out, "ball.json")
    dump_json(report, path)
    print(f"ball: {len(ball)} elements up to radius {ball.radius}"
          f"{' (truncated)' if truncated else ''} -> {path}")
    return 0


def cmd_divergence(config):
    form, gens = _named_matrices(config)
    # the ball first, so that enumerate_ball names a malformed generator
    ball, truncated = _enumerate(config, gens)
    rs = restricted_roots(form, gens[0][1].shape[0])
    profile = divergence_profile(ball, rs, form)
    path = os.path.join(config.out, "divergence.csv")
    with open(path, "w") as fh:
        fh.write(profile.to_csv())
    # the fit skips radius 0
    slope, shape = fit_divergence_slope(profile, 1) \
        if np.sum(profile.radii() >= 1) >= 3 else (float("nan"), "n/a")
    print(f"divergence: ball of {len(ball)} elements"
          f"{' (truncated)' if truncated else ''}, "
          f"alpha_1 slope {slope:.3g} ({shape}) -> {path}")
    return 0


def _chart(text, n):
    """The two coordinate indices of ``--chart``, each in 0..n-1."""
    try:
        chart = tuple(int(x) for x in text.split(","))
    except ValueError:
        chart = ()
    if len(chart) != 2 or not all(0 <= i < n for i in chart):
        raise ValueError(f"chart must be two comma-separated integers in "
                         f"0..{n - 1}, got {text!r}")
    return chart


def cmd_limitset(config):
    form, gens = _named_matrices(config)
    n = gens[0][1].shape[0]
    chart = _chart(config.chart, n)
    theta = flag_theta(form, n, config.xi_root)
    ball, truncated = _enumerate(config, gens)
    sample = sample_limit_set(ball, theta, form, min_gap=config.min_gap)
    csv_path = os.path.join(config.out, "limitset.csv")
    with open(csv_path, "w") as fh:
        fh.write(sample_to_csv(sample))
    svg_path = os.path.join(config.out, "limitset.svg")
    with open(svg_path, "w") as fh:
        fh.write(sample_to_svg(sample, chart))
    print(f"limitset: {len(sample)} sampled flags"
          f"{' (truncated ball)' if truncated else ''} -> {csv_path}, {svg_path}")
    return 0


def _base_point(form):
    """The maximally negative q-plane fixed by the compact subgroup."""
    n, q = form.n, form.q
    c = witt_pm_basis(form.p, form.q)
    return in_Xbar(Frame(c[:, n - q:]), form)


def cmd_domain(config):
    form, gens = _named_matrices(config)
    if form is None:
        raise ValueError("domain check needs a form (use --form P,Q)")
    if form.is_complex:
        raise ValueError("domain check needs a real form")
    theta = flag_theta(form, gens[0][1].shape[0], 1)
    ball, truncated = _enumerate(config, gens)
    # one stream feeds the interior points, then the coverage trials
    points = gaussian_domain_sampler(form, config.rng())

    try:
        sample = sample_limit_set(ball, theta, form, min_gap=config.min_gap)
    except EmptyLimitSampleError:
        sample = None

    interior = []
    attempts = 0
    while len(interior) < config.samples and attempts < 50 * config.samples:
        attempts += 1
        pt = next(points)
        if pt.is_interior:
            interior.append(pt)

    report = {"schema_version": SCHEMA_VERSION,
              "truncated_ball": truncated,
              "ball_size": len(ball),
              "interior_samples": len(interior),
              # signatures excluded by the properness/cocompactness
              # statements; runs are permitted but tagged
              "outside_theorem_hypotheses": (form.p, form.q) == (2, 2)}

    if sample is None:
        report.update({"sample_size": 0, "bad_set_hits": 0,
                       "relation_flags": [], "expansion_certificates": []})
    else:
        # a (0, n, q) stack when --samples is 0, where np.stack raises
        frames = np.reshape([pt.frame.columns for pt in interior], (-1, form.n, form.q))
        hits = int(np.count_nonzero(bad_set_witnesses(frames, sample, config.tol) >= 0))
        # the scan rejects points within its own tolerance of the bad set
        clean = np.flatnonzero(bad_set_witnesses(frames, sample, ACCUMULATION_TOL) < 0)
        flags = dynamical_relation_scan([interior[i] for i in clean[:config.scan_points]],
                                        ball, sample)
        words = sample.words[:config.expansion_flags]
        results = expansion_certificates(
            [Frame(cols) for cols in sample.columns[:len(words)]],
            [[word[:k] for k in range(1, len(word) + 1)] for word in words],
            ball, config.expansion_factor,
            rngs=[np.random.default_rng(config.seed) for _ in words])
        certs = [{"flag_word": word, "success": res.success, "word": res.word,
                  "radius": res.neighborhood_radius, "factor": res.factor}
                 for word, res in zip(words, results)]
        trans = transversality_report(sample, form) if len(sample) > 1 else None
        report.update({
            "sample_size": len(sample),
            # a one-flag sample has no neighbor distance; JSON has no
            # infinity
            "sample_covering_radius": trans.covering_radius if trans else None,
            "bad_set_hits": hits,
            "transversality_margin": trans.margin if trans else None,
            "relation_flags": flags,
            "expansion_certificates": certs,
        })

    core = [_base_point(form)]
    curve = orbit_coverage(core, ball, points, trials=min(config.samples, 100),
                           sample=sample, d_core=0.3)
    report["coverage_curve"] = [
        {"margin": m, "fraction": (None if np.isnan(f) else f), "count": c}
        for m, f, c in zip(curve.margins, curve.fractions, curve.counts)]

    path = config.report or os.path.join(config.out, "domain.json")
    dump_json(report, path)
    print(f"domain: {report.get('bad_set_hits', 0)} bad-set hits, "
          f"{len(report['relation_flags'])} relation flags -> {path}")
    return 0


def cmd_orbits(config):
    rs = build_root_system(config.type, config.rank)
    if config.support == "adjoint":
        if rs.table1 is None:
            raise ValueError(f"{config.type}_{config.rank} has no adjoint data")
        a = rs.table1.alpha_G_index
        support = ThetaSet(rs, frozenset({a, rs.opposition[a - 1]}))
    elif config.support == "all":
        support = ThetaSet(rs, frozenset(range(1, rs.rank + 1)))
    else:
        support = ThetaSet(rs, frozenset(int(x)
                                         for x in config.support.split(",")))
    from .satake import orbit_decomposition, orbits_to_dot, orbits_to_json
    orbits = orbit_decomposition(rs, support)
    d = orbits_to_json(orbits)
    d.update({"schema_version": SCHEMA_VERSION, "type": config.type,
              "rank": config.rank,
              "support": list(support.sorted_members)})
    json_path = os.path.join(config.out, "orbits.json")
    dump_json(d, json_path)
    dot_path = os.path.join(config.out, "orbits.dot")
    with open(dot_path, "w") as fh:
        fh.write(orbits_to_dot(rs, support, orbits))
    print(f"orbits: {len(orbits)} orbits of {config.type}_{config.rank} "
          f"with support {set(support.sorted_members)} -> {json_path}, {dot_path}")
    return 0


def cmd_table1(config):
    rows = []
    print(f"{'type':<6} {'alpha_G':<10} {'chi_G coefficients':<28} verified")
    for rs in table1_rows():
        # build_root_system has verified the row: the simple roots pairing
        # positively with chi_G are alpha_G and its opposition image
        t1 = rs.table1
        alpha = sorted({t1.alpha_G_index, rs.opposition[t1.alpha_G_index - 1]})
        label = f"{rs.type_label}_{rs.rank}" if rs.type_label in ("A", "B", "C", "D", "BC") \
            else rs.type_label
        chi = "+".join(f"{c}a{i + 1}" for i, c in enumerate(t1.chi_G_coeffs))
        print(f"{label:<6} {','.join(f'alpha_{i}' for i in alpha):<10} {chi:<28} yes")
        rows.append({"type": rs.type_label, "rank": rs.rank, "alpha_G": alpha,
                     "chi_G": list(t1.chi_G_coeffs),
                     "derived_positive_set": alpha, "verified": True})
    dump_json({"schema_version": SCHEMA_VERSION, "rows": rows},
              os.path.join(config.out, "table1.json"))
    return 0


COMMANDS = {
    "ball": cmd_ball,
    "cartan": cmd_cartan,
    "divergence": cmd_divergence,
    "limitset": cmd_limitset,
    "domain": cmd_domain,
    "orbits": cmd_orbits,
    "table1": cmd_table1,
}


@functools.cache
def make_parser():
    parser = argparse.ArgumentParser(
        prog="anoctl",
        description="Cartan projections, limit sets, and boundary-orbit "
                    "combinatorics for matrix groups")
    parser.add_argument("--version", action="version", version=__version__)
    # every command takes the same options, defined once: RunConfig's
    # fields but those that only a config file sets
    common = argparse.ArgumentParser(add_help=False)
    for name, kind in _FIELD_TYPES.items():
        if name not in ("command", "expansion_flags", "expansion_factor"):
            common.add_argument("--" + name.replace("_", "-"), type=_CASTS[kind])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        os.makedirs(config.out, exist_ok=True)
        return COMMANDS[config.command](config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def domain_check_main(argv=None):
    """`domain-check --form p,q --gens gens.json --radius R --samples N
    --report out.json`: alias for `anoctl domain`."""
    argv = sys.argv[1:] if argv is None else argv
    return main(["domain"] + list(argv))


if __name__ == "__main__":
    sys.exit(main())
