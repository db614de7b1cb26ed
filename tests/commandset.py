"""Run the CLI command set and print one fingerprint line per command.

Usage (from the repository root)::

    python tests/commandset.py > commandset.txt
    diff commandset.txt tests/data/commandset.txt

Each line is the command's arguments, its exit code, and the sha256 of
its stdout and of its stderr.  The generated inputs (the perturbed and
trailing-``*`` table1 specs, a 100,000-character spec, an exponent past
the packed field width, filiform 10 and 20, abelian 20 and the dim-12,
n = 64 many-term chain) and copies of the bundled specs are written to a
temporary directory, and every command runs there with relative file
names, so no output holds the directory's path.

The script itself needs only the standard library; the many-term chain
is written by ``tests/reference.py`` in a child process.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

BUNDLED = ("table1", "heisenberg6", "affine6", "filiform12", "sheared_table1",
           "scaled_table1", "null_heisenberg6", "manyterm6", "adskew6")
FORMS = (["check"], ["classify"], ["curvature"], ["report"],
         ["report", "--format", "csv"], ["report", "--format", "json"])
#: One more than ``poly.MAX_EXPONENT``, the largest exponent a packed
#: field holds.
PAST_FIELD = 2 ** 31


def filiform_spec(dim: int) -> str:
    return (f"dimension = {dim}\nparameters = t\n\n[brackets]\n"
            + "".join(f"1 {k} -> {k + 1}: t\n" for k in range(2, dim)))


def write_inputs(tmp: Path, env: dict) -> None:
    for name in BUNDLED:
        shutil.copy(DATA / f"{name}.spec", tmp / f"{name}.spec")
    table1 = (DATA / "table1.spec").read_text(encoding="utf-8")
    generated = {
        "perturbed": table1.replace("2 3 -> 5: l1; 6: l2\n",
                                    "2 3 -> 5: l1 + 1; 6: l2\n"),
        "star": table1.replace("\n1 2 -> 4: l2;", "\n1 2 -> 4: l2*;"),
        "stray": "dimension = 2\nparameters = t\n" + "x" * 100_000 + "\n",
        "huge": ("dimension = 4\nparameters = a\n\n[brackets]\n"
                 f"1 2 -> 3: a^{PAST_FIELD}\n"),
        "filiform10": filiform_spec(10),
        "filiform20": filiform_spec(20),
        "abelian20": "dimension = 20\nparameters = t\n",
    }
    for name, text in generated.items():
        (tmp / f"{name}.spec").write_text(text, encoding="utf-8")
    chain = subprocess.run(
        [sys.executable, "-c", "import random, reference; print(reference."
         "many_term_spec(12, 64, random.Random(1)), end='')"],
        env={**env, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")])},
        capture_output=True, text=True, check=True).stdout
    (tmp / "manyterm12.spec").write_text(chain, encoding="utf-8")


def commands() -> list[list[str]]:
    inputs = (["--family", "table1"], ["table1.spec"],
              ["--family", "table1", "--eval", "l1=3/2,l2=-2,l3=5/7"],
              ["heisenberg6.spec"], ["affine6.spec"], ["filiform10.spec"],
              ["filiform12.spec"], ["sheared_table1.spec"],
              ["sheared_table1.spec", "--eval", "l1=2,l2=-1/3,l3=7"],
              ["scaled_table1.spec"], ["perturbed.spec"])
    out = [form[:1] + source + form[1:] for source in inputs for form in FORMS]
    out += [["family", "--table1"], ["family", "--table1", "--emit-spec"]]
    out += [[c, "filiform20.spec"] for c in ("check", "report", "curvature")]
    out += [[c, "abelian20.spec"] for c in ("report", "check")]
    out += [["curvature", "null_heisenberg6.spec"],
            ["report", "null_heisenberg6.spec", "--format", "json"]]
    out += [form[:1] + ["manyterm6.spec"] + form[1:] for form in FORMS]
    out += [[c, "star.spec"] for c in ("check", "report")]
    out += [["check", "stray.spec"],
            ["check", "--family", "table1", "--eval",
             f"l1={'9' * 100_000},l2=1,l3=1"]]
    out += [["check", "huge.spec"], ["check", "missing.spec"],
            ["report", "manyterm12.spec"]]
    out += [["report", "adskew6.spec", "--format", "json"],
            ["check", "adskew6.spec"]]
    return out


def shown(arg: str) -> str:
    """``arg``, or its length in place of an argument too long to print."""
    return arg if len(arg) <= 40 else f"<{len(arg)} characters>"


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_inputs(tmp, env)
        for args in commands():
            done = subprocess.run([sys.executable, "-m", "nordenlab.cli",
                                   *args], cwd=tmp, env=env,
                                  capture_output=True)
            print(" ".join(map(shown, args)), done.returncode,
                  hashlib.sha256(done.stdout).hexdigest(),
                  hashlib.sha256(done.stderr).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
