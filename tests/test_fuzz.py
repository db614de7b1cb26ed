"""The CLI exit-code contract on mutated spec files.

Exit codes are 0 ok, 1 a check failed and 2 bad input or usage, for
every input.  Each case mutates one bundled spec with seeded stdlib
``random``, one to three edits: drop, swap or duplicate lines, replace a
number (a count, an index, an exponent or a coefficient) with a small
value or one just past a spec limit, or insert a stray ``[``, ``=``,
``^`` or ``/``.  ``check`` and ``report`` then run in process on the
result; each must return 0, 1 or 2 and raise nothing, so a singular
metric, a broken identity or a malformed line ends in a typed error.
Two more mutations each pass one spec limit, a bracket coefficient with
one term too many and a file one byte too long; both must exit with 2.
"""

import random
import re
from itertools import product

import pytest

from nordenlab.cli import main
from nordenlab.specfile import (MAX_DEGREE, MAX_DIMENSION, MAX_SPEC_BYTES,
                                MAX_TERMS)

SPECS = ("table1", "heisenberg6", "affine6", "filiform12")
#: Small values, and values just past the dimension and degree limits.
NUMBERS = ("0", "1", "2", "3", "5", "6", "7", str(MAX_DEGREE + 1),
           str(MAX_DIMENSION + 1), "-1", "1/2")
CASES_PER_SPEC = 75


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        edit = rng.choice(("drop", "swap", "duplicate", "number", "number",
                           "stray"))
        if edit == "drop":
            del lines[i]
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "number":
            numbers = list(re.finditer(r"\d+", lines[i]))
            if numbers:
                m = rng.choice(numbers)
                lines[i] = (lines[i][:m.start()] + rng.choice(NUMBERS)
                            + lines[i][m.end():])
        else:
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + rng.choice("[=^/") + lines[i][at:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", SPECS)
def test_mutated_specs_keep_the_exit_code_contract(name, spec_fixture_path,
                                                   tmp_path, capsys):
    text = (spec_fixture_path.parent / f"{name}.spec").read_text(
        encoding="utf-8")
    rng = random.Random(name)
    path = tmp_path / "mutated.spec"
    codes = set()
    for case in range(CASES_PER_SPEC):
        mutated = mutate(rng, text)
        path.write_text(mutated, encoding="utf-8")
        for command in ("check", "report"):
            code = main([command, str(path)])
            assert code in (0, 1, 2), (case, command, mutated)
            codes.add(code)
        capsys.readouterr()
    assert 2 in codes and 0 in codes  # mutations both break and keep specs


def too_many_terms(text: str) -> str:
    """The first bracket coefficient swapped for one with MAX_TERMS + 1
    terms, each of degree at most 15, over three added parameters."""
    terms = [f"u^{i}*v^{j}*w^{k}"
             for i, j, k in product(range(1, 6), repeat=3)][:MAX_TERMS + 1]
    text = re.sub(r"^parameters =(.*)$",
                  lambda m: "parameters = " + ", ".join(
                      filter(None, (m[1].strip(), "u, v, w"))),
                  text, count=1, flags=re.M)
    return re.sub(r"^(\d+ \d+ -> \d+: )[^;\n]*",
                  lambda m: m[1] + " + ".join(terms), text, count=1,
                  flags=re.M)


def too_long(text: str) -> str:
    """The file padded with a comment to MAX_SPEC_BYTES + 1 bytes."""
    pad = MAX_SPEC_BYTES + 1 - len(text.encode("utf-8")) - len("#\n")
    return text + "#" + "x" * pad + "\n"


@pytest.mark.parametrize("mutation, message", [
    (too_many_terms, "terms, above the limit of"),
    (too_long, "larger than the limit of"),
])
@pytest.mark.parametrize("name", SPECS)
def test_specs_past_a_limit_exit_with_2(name, mutation, message,
                                        spec_fixture_path, tmp_path, capsys):
    text = (spec_fixture_path.parent / f"{name}.spec").read_text(
        encoding="utf-8")
    path = tmp_path / "mutated.spec"
    path.write_text(mutation(text), encoding="utf-8")
    for command in ("check", "report"):
        assert main([command, str(path)]) == 2
        assert message in capsys.readouterr().err
