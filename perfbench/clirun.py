"""Run the nordenlab CLI as ``python -m nordenlab.cli`` does, optionally
with calibration passes during the run.

    PYTHONPATH=src python3 perfbench/clirun.py SUBCOMMAND ARGS...

With PERFBENCH_PASSES_FILE set, a pass of the calibration loop runs every
``calib.SAMPLE_INTERVAL_S`` while the CLI runs, in this process and so on
the CPU the CLI runs on.  At exit the file gets the passes' total time,
then each pass's time, one a line.  The benchmark takes the total off the
call's time and scales the call by the passes.
"""

import os
import runpy
import sys

import calib

PASSES_FILE = os.environ.get("PERFBENCH_PASSES_FILE")
sys.path[0] = os.getcwd()  # as with -m
sampler = calib.Sampler() if PASSES_FILE else None
if sampler:
    sampler.arm()
try:
    runpy.run_module("nordenlab.cli", run_name="__main__", alter_sys=True)
finally:
    if sampler:
        sampler.disarm()
        with open(PASSES_FILE, "w", encoding="utf-8") as out:
            out.write("\n".join(map(repr, [sampler.paused,
                                           *sampler.passes])))
