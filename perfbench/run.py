#!/usr/bin/env python3
"""Build and run the monitor-tax benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is compiled from the checkout's sources with dune (the
build stays in the checkout's _build; dune's shared cache is switched
off), then run with the given arguments.  The last line of standard
output is the result object; build output goes to standard error.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of a cloudmon "
                "checkout\n" % needed)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            return build.returncode
        return subprocess.run([EXE] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: %s timed out\n" % e.cmd[0])
        return 1


if __name__ == "__main__":
    sys.exit(main())
