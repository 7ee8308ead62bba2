#!/usr/bin/env python3
"""Solve a system file, write the solution JSON, and re-verify it.

Usage: python scripts/solve_and_verify.py SYSTEM.json [SOLUTION_OUT.json]
"""

import os
import sys
import tempfile

from ddsolve.cli import main as cli_main


def main(argv):
    if not argv:
        print(__doc__)
        return 3
    system = argv[0]
    if len(argv) > 1:
        out = argv[1]
    else:
        fd, out = tempfile.mkstemp(suffix=".json")
        os.close(fd)
    code = cli_main(["solve", system, "--assume-irreducible", "--json", out])
    print(f"\nsolve exit code: {code}; solution written to {out}")
    if code != 0:
        return code
    vcode = cli_main(["verify", system, out, "--t0", "1", "--terms", "10"])
    print(f"verify exit code: {vcode}")
    return vcode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
