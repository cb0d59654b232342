"""The byte pins of anoctl's reports: one table, one runner.

``tests/pins.json`` lists every pinned output. Each entry has a name,
which it shares with the other outputs of one scenario; an argv, either
an ``anoctl`` command or a demo script; the output it pins, a file that
the command writes under ``{out}`` or ``stdout``; and that output's
sha256. Entries marked ``"tier1": true`` are the runs that the test
suite checks (``tests/test_pins.py``).

    python tests/pins.py            check every entry
    python tests/pins.py --record   re-record every digest, printing
                                    "name/output: old -> new" for each change

Every run is made in this process, with RuntimeWarning an error, and so
are deprecations raised from anoctl's modules:
``anoctl.cli.main`` for a command, ``runpy`` with stdout captured for a
demo. A distinct argv runs once, however many entries read it. An
argument ``{name}`` stands for the file of the named input in ``INPUTS``
and ``{out}`` for the run's own output directory.

The digests hold for one OpenBLAS kernel, which numpy's DYNAMIC_ARCH
build picks from the CPU; the table records its name, and a mismatch
names both the recorded and the running kernel.
"""

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "pins.json")
FIELDS = ("name", "argv", "output", "sha256", "tier1")

if __name__ == "__main__":      # check this checkout's sources
    sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from anoctl import cli  # noqa: E402
from anoctl.forms import make_witt_form  # noqa: E402
from anoctl.presets import mixed_o21, o21_boost, o21_rotation  # noqa: E402
from test_cartan import opq_chamber, random_opq_K  # noqa: E402
from test_cli import o22_chamber_pair, pingpong_o32, write_gens  # noqa: E402

# the named inputs of the table's commands, each written to a path
INPUTS = {
    # a rotation of order 5 and a boost: a ball with relations
    "rel": lambda path: write_gens(path, [("a", o21_rotation(2 * np.pi / 5)),
                                          ("b", o21_boost(1.0))]),
    # a non-discrete O(3,2) pair: a chamber element and a compact one
    "o32": lambda path: write_gens(path, [
        ("a", opq_chamber(make_witt_form(3, 2), [2.0, 0.5])),
        ("b", random_opq_K(np.random.default_rng(3), 3, 2))]),
    "pp": lambda path: write_gens(path, pingpong_o32(0)),
    # mixed-o21's generators, for the complex and GL(3) views
    "mixed": lambda path: write_gens(path, mixed_o21()[1]),
    "o22": lambda path: write_gens(path, o22_chamber_pair()),
    # a config of 64 expansion certificates at factor 20
    "x64": lambda path: path.write_text("expansion_flags = 64\nexpansion_factor = 20\n"),
}


def load(path=TABLE):
    """The table, checked: known fields only, and each output once per name."""
    with open(path) as fh:
        table = json.load(fh)
    seen = set()
    for entry in table["pins"]:
        key = (entry["name"], entry["output"])
        if set(entry) - set(FIELDS) or key in seen:
            raise ValueError(f"pins table: bad or repeated entry {entry}")
        seen.add(key)
    return table


def dump(table, path=TABLE):
    """Write the table with one entry per line."""
    rows = ",\n".join("    " + json.dumps({k: e[k] for k in FIELDS if k in e})
                      for e in table["pins"])
    with open(path, "w") as fh:
        fh.write(f'{{\n  "blas_core": {json.dumps(table["blas_core"])},\n'
                 f'  "pins": [\n{rows}\n  ]\n}}\n')


def blas_core():
    """(core, config) of the OpenBLAS that numpy loaded: the kernel its
    DYNAMIC_ARCH build picked on this CPU, and its build string;
    ("unknown", "") where numpy ships no scipy-openblas library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return "unknown", ""
    lib = ctypes.CDLL(libs[0])
    names = []
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_"):
        func = getattr(lib, name)
        func.argtypes, func.restype = [], ctypes.c_char_p
        names.append(func().decode())
    return tuple(names)


class Runner:
    """Runs the table's argvs in this process under ``directory``, each
    distinct argv once, and hands out the digests of their outputs."""

    def __init__(self, directory):
        self.directory = directory
        self.inputs, self.runs = {}, {}

    def _arg(self, arg, out):
        if arg == "{out}":
            return out
        if arg.startswith("{") and arg.endswith("}"):
            name = arg[1:-1]
            if name not in self.inputs:
                self.inputs[name] = os.path.join(self.directory, name)
                INPUTS[name](pathlib.Path(self.inputs[name]))
            return self.inputs[name]
        return arg

    def _run(self, argv):
        out = os.path.join(self.directory, f"run{len(self.runs)}")
        args = [self._arg(arg, out) for arg in argv]
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
            warnings.simplefilter("error", RuntimeWarning)
            for category in (DeprecationWarning, PendingDeprecationWarning, FutureWarning):
                warnings.filterwarnings("error", category=category, module="anoctl")
            if args[0].endswith(".py"):
                runpy.run_path(os.path.join(ROOT, args[0]), run_name="__main__")
            elif cli.main(args) != 0:
                raise RuntimeError(f"anoctl {' '.join(args)} failed")
        # free the run's objects now: a relation scan's per-flag containers
        # slow the cyclic collector in every later run while they live
        gc.collect()
        return stdout.getvalue().encode(), out

    def digest(self, entry):
        argv = tuple(entry["argv"])
        if argv not in self.runs:
            self.runs[argv] = self._run(argv)
        stdout, out = self.runs[argv]
        if entry["output"] != "stdout":
            with open(os.path.join(out, entry["output"]), "rb") as fh:
                stdout = fh.read()
        return hashlib.sha256(stdout).hexdigest()


def kernels(table):
    return (f"recorded under OpenBLAS core {table['blas_core']}, "
            f"running {blas_core()[0]}")


def main(argv):
    record = argv == ["--record"]
    if argv and not record:
        sys.exit("usage: python tests/pins.py [--record]")
    table = load()
    core, config = blas_core()
    print(f"OpenBLAS core {core} ({config}); table recorded under {table['blas_core']}")
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        runner = Runner(directory)
        for entry in table["pins"]:
            key = f"{entry['name']}/{entry['output']}"
            try:
                digest = runner.digest(entry)
            except (Exception, SystemExit) as exc:      # report it and go on
                digest = f"error: {exc!r}"
            if digest == entry["sha256"]:
                print(f"ok {key}", flush=True)
            elif record and not digest.startswith("error"):
                print(f"{key}: {entry['sha256']} -> {digest}", flush=True)
                entry["sha256"] = digest
            else:
                failed += 1
                print(f"FAIL {key}: {digest} where the table has {entry['sha256']} "
                      f"({kernels(table)})", flush=True)
    if record:
        table["blas_core"] = core
        dump(table)
    print(f"{len(table['pins']) - failed} of {len(table['pins'])} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
