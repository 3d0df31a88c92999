"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import reference as R
from workloads import HERMITIAN_NORM_EXPONENTS, WORKLOADS, _sliced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in specs] == list(result["metrics"])
    printed = set(lines[:-1])
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert f"{spec['name']} {got['value']!r} {spec['unit']}" in printed
    if trace:
        info = {k: json.loads(v) for k, v in (ln[2:].split(": ", 1) for ln in lines if ln.startswith("# "))}
        # busy_s of the calls in traced tasks plus bench.glue_s is the traced task time
        assert info["traced_busy_s"] + info["traced_glue_s"] == pytest.approx(info["traced_task_s"])


def test_benchmark_json_lists_the_harness_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == harness.per_layer_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == harness.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_checker_catches_a_perturbed_output():
    qs = harness.import_quditsim()
    rng = np.random.default_rng(0)
    dims = [3, 2, 2]
    psi = qs.rand_ket(12, rng)
    U = qs.rand_unitary(3, rng)

    def perturbed(*args):
        out = qs.apply(*args)
        out[5, 0] += 1e-6
        return out

    def check(out):
        return R.check_full(out, lambda: R.contract(psi.reshape(dims), U, [0]))

    run = harness.Runner(qs, per_layer=False)
    run.checking = True
    run.call("operations.apply", qs.apply, psi, U, [0], dims, check=check)
    assert run.incorrect == 0 and not run.task_failed
    run.call("operations.apply", perturbed, psi, U, [0], dims, check=check)
    assert run.incorrect == 1 and run.task_failed
    assert run.fn_fails["operations.apply"] == 1


def test_checker_counts_an_unreadable_output_as_wrong():
    qs = harness.import_quditsim()
    rng = np.random.default_rng(0)
    dims = [3, 2, 2]
    psi = qs.rand_ket(12, rng)
    U = qs.rand_unitary(3, rng)
    check = _sliced(dims, psi, [0], lambda t, sh: R.contract(t, U, sh([0])))
    run = harness.Runner(qs, per_layer=True)
    run.checking = True
    run.call("operations.apply", lambda *a: qs.apply(*a)[:-1], psi, U, [0], dims, check=check)
    assert run.incorrect == 1 and run.task_failed
    assert run.failure_notes["operations.apply"].startswith("check raised")


def test_every_hevals_case_is_checked():
    # a library whose hevals accepts every norm but answers slightly wrong
    qs = harness.import_quditsim()
    wrong = SimpleNamespace(**vars(qs))
    wrong.hevals = lambda H: np.linalg.eigvalsh(H) * (1 + 1e-6)
    wl = WORKLOADS["small_calls"]()
    run = harness.Runner(qs, per_layer=False)
    wl.setup(run, qs, 7, True)
    wl.qs = wrong
    for i in range(len(HERMITIAN_NORM_EXPONENTS) * harness.CHECK_EVERY):
        run.checking = i % harness.CHECK_EVERY == 0
        try:
            wl.task(run, i)
        except harness.TaskFailed:
            pass
    for e in HERMITIAN_NORM_EXPONENTS:
        case = f"hevals:norm_1e{e}"
        assert run.case_fails[case] == run.case_calls[case] > 0


@pytest.mark.xfail(reason="absolute 1e-12 Hermiticity tolerance (ROADMAP); small_calls "
                   "leaves out norm 1e6 until this passes")
def test_hevals_accepts_a_roundoff_hermitian_of_norm_1e6():
    qs = harness.import_quditsim()
    H = WORKLOADS["small_calls"]._roundoff_hermitian(np.random.default_rng(0), 8, 1e6)
    assert R.check_full(qs.hevals(H), R.hevals, H)[0] <= R.TOL


def test_checker_catches_a_perturbed_measurement():
    qs = harness.import_quditsim()
    rng = np.random.default_rng(1)
    dims = [2, 3]
    rho = qs.rand_rho(6, rng)
    B = qs.rand_unitary(3, rng)
    out = qs.measure(rho, B, [1], dims, rng)
    probs, post = R.born_rho(rho, B, [1], dims)
    assert R.measure_error(out, probs, post, False) <= R.TOL
    out.states[0][0, 0] += 1e-6
    assert R.measure_error(out, probs, post, False) > R.TOL


def test_expected_rejection_of_the_wrong_kind_is_a_failure():
    qs = harness.import_quditsim()
    run = harness.Runner(qs, per_layer=False)
    bad = [[1, 0], [0, 1]]
    run.expect("operations.apply", qs.ErrorKind.DIMS_INVALID, qs.apply, qs.mket([0]), bad, [0], [1],
               case="ok")
    assert run.incorrect == 0
    run.expect("operations.apply", qs.ErrorKind.ZERO_SIZE, qs.apply, qs.mket([0]), bad, [0], [1],
               case="wrong")
    assert run.incorrect == 1 and run.case_fails["wrong"] == 1


def test_self_times_subtract_children():
    spans = [(0, "task", 0.0, 10.0, None, 0), (1, "a", 1.0, 4.0, 0, 0), (2, "b", 5.0, 6.0, 0, 0)]
    assert harness.self_times(spans) == [6.0, 3.0, 1.0]


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("small_calls", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
