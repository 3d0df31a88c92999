"""quditsim benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload ket_circuit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics from a run that alternates traced and untraced
tasks. Each metric is printed by name with its unit, then the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--tiny`` shrinks every input
so the self-tests finish in seconds; its figures are not comparable.

The BLAS thread count is pinned to BLAS_THREADS before numpy loads, so
the figures do not depend on the host's core count or its other load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import harness  # noqa: E402  (numpy must load after the thread pin)
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    args = parser.parse_args(argv)

    try:
        harness.import_quditsim()
    except ImportError as exc:
        print(f"cannot import quditsim from {harness.SRC_DIR}: {exc}", file=sys.stderr)
        return 2

    out = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny
    )
    info, result = out["info"], out["result"]
    info["blas_threads"] = BLAS_THREADS
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
