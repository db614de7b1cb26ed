#!/usr/bin/env python3
"""Write golden.json: the outputs every later commit must reproduce.

Run from the repository root, on a commit whose outputs are known right:

    python3 perfbench/capture_goldens.py

It stores the text, CSV and JSON reports of table1 and of every filiform
dimension in the sweep, and the stdout of every CLI call the benchmark
makes except ``--eval`` ones, whose point depends on the seed and which
are checked against the symbolic report instead.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, SRC, WORKLOADS, cli_steps, run_cli, write_filiform_specs


def main() -> int:
    sys.path.insert(0, str(SRC))
    from nordenlab import build_table1, parse_spec_text
    from nordenlab.report import document_for

    algebras = {"table1": build_table1().algebra}
    for name, text in write_filiform_specs().items():
        algebras[name] = parse_spec_text(text).to_algebra()
    reports = {}
    for name, a in algebras.items():
        doc = document_for(a)
        reports[name] = {"text": doc.to_text(), "csv": doc.to_csv(),
                         "json": doc.to_json()}
    cli = {}
    for workload in WORKLOADS:
        for step in cli_steps(workload, "unused"):
            if step.twin_of is not None:
                continue
            _, proc = run_cli(step.argv)
            if proc.returncode != step.code:
                print(f"error: {step.key} exited {proc.returncode}, "
                      f"expected {step.code}", file=sys.stderr)
                return 1
            cli[step.key] = proc.stdout.decode("utf-8")
    GOLDEN.write_text(json.dumps({"reports": reports, "cli": cli},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(reports)} reports and {len(cli)} CLI outputs "
          f"to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
