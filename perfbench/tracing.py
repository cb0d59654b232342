"""Span tracing of calls into anoctl, installed from outside the package.

``Tracer.installed()`` wraps each callable in ``TRACED`` wherever an
``anoctl.*`` module binds it (``from .cartan import kak`` copies the
function into the importing module, so every binding is replaced) and
restores the originals on exit.  Each call records one span: name,
start, end and the index of the enclosing span.  Spans stay in memory
until ``save`` writes them out; ``layer_stats`` turns them into calls,
total and self time per span name, where self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (module, attribute) pairs; "Class.method" names a method.  The span of
# a method is named after the module and the method alone, so
# forms.Frame.from_spanning records as "forms.from_spanning".
TRACED = [
    ("cli", "main"),
    ("cartan", "kak"),
    ("cartan", "xi_theta"),
    ("words", "enumerate_ball"),
    ("words", "divergence_profile"),
    ("limits", "sample_limit_set"),
    ("limits", "LimitSample.covering_radius"),
    ("limits", "transversality_report"),
    ("limits", "sample_to_csv"),
    ("limits", "sample_to_svg"),
    ("domain", "in_Xbar"),
    ("domain", "in_bad_set"),
    ("domain", "bad_set_distance"),
    ("domain", "dynamical_relation_scan"),
    ("domain", "expansion_certificate"),
    ("domain", "gaussian_domain_sampler"),
    ("domain", "orbit_coverage"),
    ("forms", "principal_sines"),
    ("forms", "dist_grassmann"),
    ("forms", "Frame.from_spanning"),
    ("forms", "dump_json"),
]


def span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _ball_counts(ball):
    """Elements kept and candidates probed by enumerate_ball, from the
    sphere sizes: each element of sphere r-1 is extended by every letter
    except the inverse of its last one (the identity by every letter)."""
    letters = len(ball.alphabet)
    sizes = [0] * (ball.radius + 1)
    for _, _, r in ball.elements:
        sizes[r] += 1
    probed = sum(sizes[r - 1] * (letters - (r > 1))
                 for r in range(1, ball.radius + 1))
    return {"ball_elements": len(ball), "ball_kept": len(ball) - 1,
            "ball_probed": probed}


def _scan_pairs(args, kwargs):
    points, ball = args[0], args[1]
    min_len = kwargs.get("min_word_length")
    if min_len is None:
        min_len = max(ball.radius, 1)
    elements = sum(1 for _, _, r in ball.elements if r >= min_len)
    cap = kwargs.get("max_elements")
    if cap is not None:
        elements = min(elements, cap)
    return len(points) * elements


# span name -> function(args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "words.enumerate_ball": lambda a, k, res: _ball_counts(res),
    "limits.sample_limit_set": lambda a, k, res: {
        "sample_flags": len(res),
        "sample_candidates": sum(1 for _, _, r in a[0].elements if r > 0)},
    "limits.transversality_report": lambda a, k, res: {
        "transversality_pairs": res.pairs_tested},
    "domain.dynamical_relation_scan": lambda a, k, res: {
        "scan_pairs": _scan_pairs(a, k), "relation_flags": len(res)},
    "domain.expansion_certificate": lambda a, k, res: {
        "expansion_pairs": res.pairs_tested},
}


class Tracer:
    def __init__(self):
        self._ids = {}           # span name -> index in the name table
        self.name_ids, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = {}
        self._stack = [-1]

    def _wrap(self, name, func):
        name_id = self._ids.setdefault(name, len(self._ids))
        counter = COUNTERS.get(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED callable for the duration of the block."""
        import anoctl.cli  # noqa: F401  (imports every traced module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "anoctl" or n.startswith("anoctl.")) and m is not None]
        undo = []
        try:
            for module, attr in TRACED:
                owner = sys.modules[f"anoctl.{module}"]
                name = span_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        repl = classmethod(self._wrap(name, raw.__func__))
                    else:
                        repl = self._wrap(name, raw)
                    undo.append((cls, meth, raw))
                    setattr(cls, meth, repl)
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def save(self, path):
        np.savez(path, names=np.array(list(self._ids)),
                 name_ids=np.array(self.name_ids, dtype=np.int32),
                 starts=np.array(self.starts), ends=np.array(self.ends),
                 parents=np.array(self.parents, dtype=np.int64))


def layer_stats(names, name_ids, starts, ends, parents):
    """{span name: {"calls", "total_s", "self_s"}} from a span table."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=dur[nested],
                          minlength=len(dur))
    own = dur - covered
    k = len(names)
    calls = np.bincount(name_ids, minlength=k)
    total = np.bincount(name_ids, weights=dur, minlength=k)
    self_s = np.bincount(name_ids, weights=own, minlength=k)
    return {str(n): {"calls": int(calls[i]), "total_s": float(total[i]),
                     "self_s": float(self_s[i])} for i, n in enumerate(names)}


def child_calls(names, name_ids, parents, child, parent):
    """Number of spans named ``child`` whose enclosing span is named
    ``parent``."""
    names = list(names)
    if child not in names or parent not in names:
        return 0
    name_ids = np.asarray(name_ids)
    parents = np.asarray(parents)
    up = parents[(name_ids == names.index(child)) & (parents >= 0)]
    return int(np.sum(name_ids[up] == names.index(parent)))


def load_spans(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}
