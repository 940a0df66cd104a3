"""Float eigenvalue oracle for reported signatures.

Usage: python perfbench/oracle.py CHECKS_JSON

CHECKS_JSON holds a list of {"key", "entries", "sigma"}.  Prints a JSON list
of the keys whose reported sigma differs from the eigenvalue sign count of
V + V^T.  It runs in its own process so that numpy never enters the memory
of the process whose peak RSS the benchmark reports.
"""

import json
import sys

import numpy as np


def float_signature(entries, tol=1e-9) -> int:
    n = len(entries)
    if n == 0:
        return 0
    sym = np.array([[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)],
                   dtype=float)
    eigs = np.linalg.eigvalsh(sym)
    return int((eigs > tol).sum()) - int((eigs < -tol).sum())


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        checks = json.load(fh)
    bad = [c["key"] for c in checks if float_signature(c["entries"]) != c["sigma"]]
    print(json.dumps(bad))
    return 0


if __name__ == "__main__":
    sys.exit(main())
