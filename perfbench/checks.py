"""Output checks for one session.

The bundled presets have fixed inputs, so their outputs must match the
sha256 digests recorded in ``reference.json`` byte for byte.  The seeded
``pingpong-o32`` pair changes with the seed; its outputs are checked
against an oracle written here with numpy alone: the ball of a free
group, Cartan projections from stacked singular values, and the limit
sample rebuilt by the same shortlex order, gap floor and merge rule.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

OUTPUTS = ("divergence.csv", "limitset.csv", "limitset.svg", "domain.json")
# every output belongs to one command; a failed check fails that command
OUTPUT_COMMAND = {"divergence.csv": "divergence", "limitset.csv": "limitset",
                  "limitset.svg": "limitset", "domain.json": "domain"}
MIN_GAP = 1.0           # anoctl's default --min-gap
MERGE_TOL = 1e-6        # anoctl.limits.MERGE_TOL
# kak_opq (through log g^T g below norm 1e6) and a plain SVD agree on
# gaps to about 1e-8; csv values carry 12 significant digits
GAP_RTOL = 1e-7
GAP_ATOL = 1e-7
LINE_TOL = 1e-9
# anoctl merges on |cos| of unit lines, which resolves a sine of 1e-6 only
# to about 1e-4 relative; decisions this close to MERGE_TOL go either way
MERGE_BAND = 1e-2


def digests(out_dir):
    """sha256 of every output file present in out_dir."""
    found = {}
    for name in OUTPUTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def check_reference(out_dir, reference):
    """Problems (as (output, message)) against recorded digests and counts."""
    found = digests(out_dir)
    problems = [(name, "differs from the reference")
                for name, digest in reference["sha256"].items()
                if found.get(name) != digest]
    try:
        with open(os.path.join(out_dir, "domain.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError):   # already differs from the reference
        return problems
    return problems + [("domain.json", m)
                       for m in _count_problems(report, reference["domain"])]


def _count_problems(report, expected):
    seen = {key: report.get(key) for key in expected}
    seen["relation_flags"] = len(report.get("relation_flags", []))
    return [f"{key} is {seen[key]}, expected {value}"
            for key, value in expected.items() if seen[key] != value]


# ---------------------------------------------------------------------------
# oracle for generated O(p,q) pairs


class FreeGroupOracle:
    """Spheres of the free group on the given generators, in the order
    anoctl enumerates its ball (breadth first, letters a, A, b, B, ...),
    with every element's matrix and Cartan projection for O(p, q)."""

    def __init__(self, gens, q, radius):
        letters = {}
        for name, m in gens:
            letters[name] = m
            letters[name.upper()] = np.linalg.inv(m)
        alphabet = [c for name, _ in gens for c in (name, name.upper())]
        n = gens[0][1].shape[0]
        self.words = [[""]]
        self.mats = [np.eye(n)[None]]
        for _ in range(radius):
            words, mats = [], []
            for w, m in zip(self.words[-1], self.mats[-1]):
                for c in alphabet:
                    if w and c == w[-1].swapcase():
                        continue
                    words.append(w + c)
                    mats.append(m @ letters[c])
            self.words.append(words)
            self.mats.append(np.stack(mats))
        self.index = [{w: i for i, w in enumerate(ws)} for ws in self.words]
        self.q = q
        self._gaps = {}

    def gaps(self, r):
        """Simple-root gaps of type B_q (mu_i - mu_{i+1}, and mu_q) of
        every element of sphere r."""
        if r not in self._gaps:
            self._gaps[r] = self._sphere_gaps(r)
        return self._gaps[r]

    def _sphere_gaps(self, r):
        s = np.linalg.svd(self.mats[r], compute_uv=False)[:, :self.q]
        # anoctl.cartan.kak_opq: past spectral norm 1e6, exponents that
        # float64 cannot separate from 0 at that scale are reported as 0
        band = np.maximum(1e-4, 3e6 * np.finfo(float).eps * s[:, :1])
        unresolved = (s[:, :1] > 1e6) & (s < 1.0 + band)
        mu = np.where(unresolved, 0.0, np.log(s))
        return np.concatenate([mu[:, :-1] - mu[:, 1:], mu[:, -1:]], axis=1)

    def limit_candidates(self, radius):
        """(word, alpha_1 gap, attracting line) of every element, in ball
        order, whose gap may clear the floor."""
        for r in range(1, radius + 1):
            gap = self.gaps(r)[:, 0]
            for i in np.nonzero(gap > MIN_GAP - GAP_ATOL)[0]:
                line = np.linalg.svd(self.mats[r][i])[0][:, 0]
                yield self.words[r][i], gap[i], line


def _sine(kept, line):
    """Smallest sine of the angle between line and the kept lines."""
    if not kept:
        return np.inf
    k = np.array(kept)
    return float(np.min(np.linalg.norm(line - (k @ line)[:, None] * k, axis=1)))


def _verdicts(oracle, radius, keep):
    """Replay anoctl's sampling rule (gap floor, then merge into the first
    kept flag within MERGE_TOL) over the oracle's candidates.  A
    candidate whose gap or distance lies within the numerical band of
    its threshold may go either way; ``keep(word, sure)`` decides every
    candidate, where ``sure`` is True (must keep), False (must drop) or
    None (either).  Returns the problems ``keep`` reports."""
    kept, problems = [], []
    for word, gap, line in oracle.limit_candidates(radius):
        dist = _sine(kept, line)
        if dist < MERGE_TOL * (1 - MERGE_BAND):
            sure = False
        elif gap > MIN_GAP + GAP_ATOL and dist > MERGE_TOL * (1 + MERGE_BAND):
            sure = True
        else:
            sure = None
        verdict = keep(word, sure)
        if isinstance(verdict, str):
            problems.append(verdict)
        elif verdict:
            kept.append(line)
    return kept, problems


def check_sample_words(oracle, radius, words):
    """Problems with a limit sample, given as its words in order."""
    pos = 0

    def keep(word, sure):
        nonlocal pos
        listed = pos < len(words) and words[pos] == word
        if listed:
            pos += 1
            return f"{word} should have merged" if sure is False else True
        return f"{word} is missing" if sure else False

    _, problems = _verdicts(oracle, radius, keep)
    if pos != len(words):
        problems.append(f"unexpected flag {words[pos]}")
    return problems


def sample_size_range(oracle, radius):
    """Fewest and most flags the sampling rule can keep."""
    return tuple(len(_verdicts(oracle, radius,
                               lambda w, sure: bool(sure) or (
                                   sure is None and loose))[0])
                 for loose in (False, True))


def _close(a, b):
    return np.allclose(a, b, rtol=GAP_RTOL, atol=GAP_ATOL)


def check_generated(out_dir, gens, form, radii, samples):
    """Problems (as (output, message)) of a session on a free ping-pong
    pair in O(p, q), checked against FreeGroupOracle."""
    oracle = FreeGroupOracle(gens, form[1], max(radii.values()))
    parts = {"divergence.csv": lambda path: _check_divergence(
                 path, oracle, radii["divergence"]),
             "limitset.csv": lambda path: _check_limitset(
                 path, oracle, form, radii["limitset"]),
             "domain.json": lambda path: _check_domain(
                 path, oracle, radii["domain"], samples)}
    problems = []
    for name, check in parts.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append((name, "missing"))
            continue
        try:
            problems += [(name, m) for m in check(path)]
        except (ValueError, KeyError, IndexError) as exc:
            problems.append((name, f"malformed: {exc}"))
    return problems


def _check_divergence(path, oracle, radius):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for r in range(radius + 1):
        gaps, index = oracle.gaps(r), oracle.index[r]
        for root in range(1, oracle.q + 1):
            row = [x for x in rows
                   if int(x["radius"]) == r and int(x["root"]) == root]
            if len(row) != 1:
                problems.append(f"no row for {r}, {root}")
                continue
            value, word = float(row[0]["min_gap"]), row[0]["word"]
            if not _close(value, gaps[:, root - 1].min()) or word not in index \
                    or not _close(gaps[index[word], root - 1], value):
                problems.append(f"radius {r} root {root}: {value} {word!r}")
    if len(rows) != (radius + 1) * oracle.q:
        problems.append(f"{len(rows)} rows")
    return problems


def _check_limitset(path, oracle, form, radius):
    with open(path) as fh:
        table = list(csv.reader(fh))[1:]
    words = [row[0] for row in table]
    problems = check_sample_words(oracle, radius, words)
    p, q = form
    gram = np.zeros((p + q, p + q))
    for i in range(q):
        gram[i, -1 - i] = gram[-1 - i, i] = 1.0
    for i in range(q, p):
        gram[i, i] = 1.0
    for word, row in zip(words, table):
        r = len(word)
        if r > radius or word not in oracle.index[r]:
            continue                    # reported by check_sample_words
        i = oracle.index[r][word]
        top = np.linalg.svd(oracle.mats[r][i])[0][:, 0]
        line = np.array([float(x) for x in row[3:]])
        if not _close(float(row[2]), oracle.gaps(r)[i, 0]) \
                or 1.0 - abs(top @ line) > LINE_TOL \
                or abs(line @ gram @ line) > LINE_TOL:
            problems.append(f"flag of {word} differs")
    return problems


def _check_domain(path, oracle, radius, samples):
    with open(path) as fh:
        report = json.load(fh)
    expected = {"ball_size": sum(len(s) for s in oracle.words[:radius + 1]),
                "bad_set_hits": 0, "relation_flags": 0,
                "interior_samples": samples, "truncated_ball": False}
    problems = _count_problems(report, expected)
    fewest, most = sample_size_range(oracle, radius)
    if not fewest <= report["sample_size"] <= most:
        problems.append(f"sample_size {report['sample_size']} is outside "
                        f"[{fewest}, {most}]")
    return problems
