"""Scaling sweep, run only on request; it gates nothing.

    python3 bench/sweep.py

Prints, for sizing later changes:

* ``apply`` of a Haar 1-qubit gate on the middle qubit of an n-qubit ket
  against the bare tensordot + moveaxis reference, n = 16, 18, 20, 22;
* a full-register computational-basis ``measure`` against the one-matmul
  Born reference, n = 8 .. 11.

Each figure is the median of REPS calls, in ms, with the BLAS
thread count pinned as in ``run.py``. The last line is the table as JSON.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import run  # noqa: F401  (pins the BLAS thread count before numpy loads)
import harness
import reference as R

import numpy as np  # noqa: E402

REPS = 5


def median_ms(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> None:
    qs = harness.import_quditsim()
    rng = np.random.default_rng(0)
    rows = []
    for n in (16, 18, 20, 22):
        dims = [2] * n
        psi = qs.rand_ket(2**n, rng)
        U = qs.rand_unitary(2, rng)
        k = n // 2
        lib = median_ms(lambda: qs.apply(psi, U, [k], dims))
        ref = median_ms(lambda: R.contract(psi.reshape(dims), U, [k]))
        rows.append({"op": "apply", "n": n, "lib_ms": lib, "ref_ms": ref, "ratio": lib / ref})
        del psi
    for n in (8, 9, 10, 11):
        dims = [2] * n
        psi = qs.rand_ket(2**n, rng)
        eye = np.eye(2**n, dtype=np.complex128)
        lib = median_ms(lambda: qs.measure(psi, eye, list(range(n)), dims, rng))
        ref = median_ms(lambda: R.born_ket(psi, eye, list(range(n)), dims))
        rows.append({"op": "measure_full", "n": n, "lib_ms": lib, "ref_ms": ref, "ratio": lib / ref})
    for row in rows:
        print(f"{row['op']:<13} n={row['n']:<3} lib {row['lib_ms']:10.3f} ms   "
              f"ref {row['ref_ms']:9.3f} ms   ratio {row['ratio']:8.2f}")
    print(json.dumps({"blas_threads": run.BLAS_THREADS, "rows": rows}))


if __name__ == "__main__":
    main()
