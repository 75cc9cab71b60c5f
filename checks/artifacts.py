"""Digests of the files that a fixed list of ``fdst`` commands writes.

    python checks/artifacts.py --src PATH       # sha256 per artifact of PATH's fdst
    python checks/artifacts.py --compare A B    # the artifacts that differ between two
    python checks/artifacts.py --write          # this checkout's, into checks/digests.txt

PATH, A and B are ``src`` directories of checkouts (each holds ``fdst/``).
Each is copied to a temporary directory and run there in one fresh
interpreter, which calls ``fdst.cli.main`` once per command of
``commands()``; every command gets its own ``--out`` directory, which the
commands of ``FAILING`` leave empty. Every file is hashed byte for byte, so
-0.0 and 0.0 differ; ``fdst`` writes nothing that differs between two runs
of the same code, so their digests agree. The exit code of every command is
an artifact too (``exit_codes.txt``).

``--src`` prints one ``sha256  path`` line per artifact. ``--compare``
prints each artifact that differs or exists on one side only, and exits 1
when there is one. ``--write`` writes the lines of ``--src`` for this
checkout's ``src`` to ``checks/digests.txt``, under a header line with the
numpy version; ``checks/tests`` fails on any artifact whose digest differs
from it, and skips that comparison under another numpy version, whose
random streams and float sums may differ. A change that alters outputs on
purpose writes the file again, so its diff names the changed artifacts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MANIFEST = ROOT / "checks" / "digests.txt"

NAMED_GRAPHS = ["k4", "k5", "k6", "k33", "prism", "cube", "petersen", "moebius-kantor", "c6"]
CONSTRUCTIONS = ["prism r=3 m=6", "grid delta=4 m=4"]
EXACT_SEED = 1  # the graphs of the exact_small benchmark workload at this seed
SIM_SEED = 20
# commands that must fail, with their exit codes: a step too coarse for the
# drift overflows it (3), an infinite step is refused (2), and a cubic
# n = 22 graph lies above the exact searches' size guard (2)
FAILING = {"integrate_r10_step0.2": (["integrate", "--r", "10", "--step", "0.2"], 3),
           "integrate_r3_stepinf": (["integrate", "--r", "3", "--step", "inf"], 2),
           "construction_prism_m11": (["exact", "--construction", "prism r=3 m=11"], 2)}


def commands(inputs):
    """(label, argv) per command; label is the command's --out directory.

    ``inputs`` holds the graph files of ``write_inputs``.
    """
    cmds = [("table1", ["reproduce-table1"])]
    for step in (None, "2e-4"):
        for r in range(3, 11):
            label = f"integrate_r{r}" + (f"_step{step}" if step else "")
            cmds.append((label, ["integrate", "--r", str(r)] + (["--step", step] if step else [])))
    sim = ["simulate", "--n", "20000", "--seed", str(SIM_SEED)]
    cmds += [("lazy_r3", sim + ["--r", "3", "--trials", "3", "--jobs", "2"]),
             ("lazy_r4_stride7", sim + ["--r", "4", "--trials", "1", "--sample-stride", "7"]),
             ("graph_r3", ["simulate", "--mode", "graph", "--r", "3", "--n", "1000",
                           "--trials", "5", "--seed", str(SIM_SEED), "--jobs", "1"])]
    cmds += [(f"exact_{name}", ["exact", "--graph", name]) for name in NAMED_GRAPHS]
    cmds += [(f"construction_{text.split()[0]}", ["exact", "--construction", text])
             for text in CONSTRUCTIONS]
    cmds += [(f"exact_{path.stem}", ["exact", "--graph-file", str(path)])
             for path in sorted(inputs.glob("*.txt"))]
    cmds.append(("compare", ["compare", "--sim-dir", "lazy_r3",
                             "--ode-csv", "integrate_r3/solution_r3.csv"]))
    cmds += [(label, argv) for label, (argv, _) in FAILING.items()]
    return cmds


def write_inputs(directory):
    """Write the exact_small graph files for EXACT_SEED into ``directory``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    WORKLOADS["exact_small"].prepare(EXACT_SEED, Path(directory), 1)


# runs in the interpreter of the copied checkout, with its src on sys.path
_RUNNER = """
import json, os, sys
import fdst
from fdst.cli import main
if not os.path.abspath(fdst.__file__).startswith(os.path.abspath(sys.argv[1])):
    sys.exit(f"imported fdst from {fdst.__file__}, not {sys.argv[1]}")
codes = []
for label, argv in json.loads(sys.argv[2]):
    os.makedirs(label)
    codes.append(f"{main(argv + ['--out', label])} {label}")
with open("exit_codes.txt", "w") as fh:
    fh.write("\\n".join(codes) + "\\n")
"""


def run(src, workdir, inputs):
    """Run ``commands(inputs)`` on a copy of ``src`` in ``workdir``; returns the output dir."""
    src = Path(src)
    if not (src / "fdst" / "__init__.py").is_file():
        raise SystemExit(f"error: no fdst package under {src}")
    workdir = Path(workdir)
    code = workdir / "src"
    shutil.copytree(src, code, ignore=shutil.ignore_patterns("__pycache__"))
    out = workdir / "out"
    out.mkdir()
    cmds = commands(Path(inputs))
    env = dict(os.environ, PYTHONPATH=str(code), PYTHONDONTWRITEBYTECODE="1")
    # the FAILING commands print their error lines, so stderr is shown only
    # when the runner itself fails
    proc = subprocess.run([sys.executable, "-c", _RUNNER, str(code), json.dumps(cmds)],
                          cwd=out, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"error: the command list stopped on {src} "
                         f"(exit {proc.returncode})\n{proc.stderr}")
    return out


def digest(path):
    """sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(out):
    """{path relative to ``out``: digest} of every file under ``out``."""
    out = Path(out)
    return {str(p.relative_to(out)): digest(p) for p in sorted(out.rglob("*")) if p.is_file()}


def differing(a, b):
    """Sorted paths whose digests differ between ``a`` and ``b`` or that one side lacks."""
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def artifact_digests(src, inputs):
    with tempfile.TemporaryDirectory(prefix="fdst-artifacts-") as tmp:
        return digests(run(src, tmp, inputs))


def numpy_version():
    """numpy's version in this interpreter, which runs the list."""
    import numpy

    return numpy.__version__


def write_manifest(found, path=MANIFEST):
    """Write the digests ``found`` under a header line with ``numpy_version()``."""
    path.write_text("".join([f"# numpy {numpy_version()}\n"]
                            + [f"{sha}  {p}\n" for p, sha in found.items()]))


def read_manifest(path=MANIFEST):
    """(numpy version, {path: digest}) of a file that ``write_manifest`` wrote."""
    header, *lines = path.read_text().splitlines()
    return header.removeprefix("# numpy "), dict(line.split("  ", 1)[::-1] for line in lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--src", metavar="PATH", help="a checkout's src directory")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="two checkouts' src directories")
    group.add_argument("--write", action="store_true",
                       help=f"record this checkout's digests in {MANIFEST.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fdst-inputs-") as inputs:
        write_inputs(inputs)
        if args.write:
            write_manifest(artifact_digests(ROOT / "src", inputs))
            return 0
        if args.src:
            for path, sha in artifact_digests(args.src, inputs).items():
                print(f"{sha}  {path}")
            return 0
        a, b = (artifact_digests(src, inputs) for src in args.compare)
    diff = differing(a, b)
    for path in diff:
        side = "" if path in a and path in b else f" (only in {'A' if path in a else 'B'})"
        print(f"differs: {path}{side}")
    print(f"{len(diff)} of {len(a.keys() | b.keys())} artifacts differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
