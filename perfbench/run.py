#!/usr/bin/env python3
"""Build the engine from source and run one benchmark workload.

    python3 perfbench/run.py --workload olap|served|remote --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/perfbench.exe (the
load generator) and bin/volcano_cli.exe (the daemon the served workload
starts) with dune, then runs the load generator.  Its last line of
standard output is the JSON result; build output goes to standard error.
Exits non-zero, without a result, when the tree cannot be built or a run
fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("olap", "served", "remote")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "volcano_cli.exe")
SOURCES = ("dune-project", "lib", os.path.join("bin", "volcano_cli.ml"))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def build():
    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        sys.stderr.write("perfbench: not a source tree (missing %s)\n" % ", ".join(missing))
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/volcano_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return proc.returncode == 0


def main(argv):
    args = parse_args(argv)
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--cli", CLI]
    # Its own process group, so a run that overstays takes its daemon and
    # worker processes down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return 1
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
