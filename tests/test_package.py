"""The package's import surface: ``import nordenlab`` binds its exports
lazily, each on first access, and a CLI call loads only the modules its
subcommand runs.  ``check`` and ``classify`` never load the curvature
stages, the report or ``json``."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nordenlab
from nordenlab import Poly, build_table1

ROOT = Path(__file__).resolve().parents[1]
SPEC = str(ROOT / "tests" / "data" / "filiform12.spec")

#: Runs ``main`` on the arguments and prints the modules loaded by then.
PROBE = """\
import contextlib, io, sys
from nordenlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(*sorted(sys.modules))
"""


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args],
                          env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, check=True, **kwargs)


@pytest.mark.parametrize("argv, family_loaded", [
    (["check", SPEC], False),
    (["classify", SPEC], False),
    (["check", "--family", "table1"], True),
    (["classify", "--family", "table1"], True),
    (["family", "--table1", "--emit-spec"], True),
], ids=["check-spec", "classify-spec", "check-family", "classify-family",
        "emit-spec"])
def test_cli_call_loads_only_the_modules_it_runs(argv, family_loaded):
    loaded = set(run_python("-c", PROBE, *argv, text=True).stdout.split())
    assert "nordenlab.cli" in loaded
    assert not loaded & {"nordenlab.curvature", "nordenlab.report", "json"}
    assert ("nordenlab.family" in loaded) == family_loaded


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nordenlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == nordenlab.__all__
    assert len(nordenlab.__all__) == 48


def test_every_export_resolves_and_is_listed():
    names = [*nordenlab.__all__, "rational_rank"]
    assert "rational_rank" not in nordenlab.__all__
    for name in names:
        value = getattr(nordenlab, name)
        assert value.__module__.startswith("nordenlab."), name
    assert set(names) <= set(dir(nordenlab))
    assert nordenlab.check_eq22 is nordenlab.family.check_eq22


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nordenlab.no_such_name
    with pytest.raises(ImportError):
        from nordenlab import no_such_name  # noqa: F401


def test_submodules_import_through_the_package():
    from nordenlab import curvature
    import nordenlab.report

    assert nordenlab.curvature is curvature
    assert nordenlab.report.Geometry is nordenlab.Geometry


def test_pickles_load_in_a_fresh_interpreter():
    # the child imports nothing before it unpickles
    objects = (Poly.variable("a", ("a", "b")) / 3, build_table1().algebra)
    out = run_python("-c", "import pickle, sys; sys.stdout.buffer.write("
                     "pickle.dumps(pickle.load(sys.stdin.buffer)))",
                     input=pickle.dumps(objects)).stdout
    assert pickle.loads(out) == objects
