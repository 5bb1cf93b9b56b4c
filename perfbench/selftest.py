#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs ``ratfm_copy`` and ``zero_shot_naive`` on a small seeded dataset,
confirms every check passes on the clean outputs, then corrupts a copy
of the outputs once per case and confirms the named check rejects it:
one raw score perturbed, a retrieval winner swapped for the runner-up,
a label flipped, a domain mean altered, a VUS value altered and one
zero-shot raw score perturbed.  It also confirms that ``BENCHMARK.json``
lists the workloads and metrics the benchmark reports, and that the
tracer leaves out the metrics of a traced name that no longer exists
and traces the rest.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
BUDGET = (64, 16, 64)
POOL_STRIDE = 8
SAMPLE = 6


def make_outputs(work: Path) -> tuple[Path, Path]:
    sys.path.insert(0, str(HERE.parent / "src"))
    from ratfm import harness
    from ratfm.forecast import Budget
    from ratfm.synth import SynthSpec, write_synthetic

    data = work / "data"
    write_synthetic(
        SynthSpec(domains=2, series_per_domain=3, train_len=800, test_len=600, seed=SEED),
        data,
    )
    config = harness.ExperimentConfig(
        dataset_root=str(data), budget=Budget(*BUDGET), pool_stride=POOL_STRIDE,
        bootstrap_iterations=0, seed=SEED,
    )
    prepared = harness.prepare_run(config)
    for setting in ("ratfm_copy", "zero_shot_naive"):
        report = harness.run_setting(config, setting, data=prepared)
        harness.emit_reports(report, work / setting)
    return data, work


def all_checks(inputs, out_dir: Path) -> dict[str, list[str]]:
    copy = checks.read_output(out_dir / "ratfm_copy")
    zs = checks.read_output(out_dir / "zero_shot_naive")
    found = {}
    for name, out in (("ratfm_copy", copy), ("zero_shot_naive", zs)):
        found[f"{name}/aggregation"] = checks.check_aggregation(out, inputs)
        found[f"{name}/scoring"] = checks.check_scoring(out, inputs, BUDGET)
        found[f"{name}/vus"] = checks.check_vus(out, inputs, len(inputs), SEED)
    found["ratfm_copy/retrieval"] = checks.check_retrieval(
        copy, inputs, BUDGET, POOL_STRIDE, 1.0, SEED, SAMPLE
    )
    found["zero_shot_naive/seasonal_naive"] = checks.check_seasonal_naive(zs, inputs, BUDGET)
    return found


def edit_csv(path: Path, row: int, column: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = fn(cells[column])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def perturb_raw(inputs, out: Path, setting: str) -> None:
    sid = sorted(inputs)[0]
    edit_csv(out / setting / "scores" / f"{sid}.csv", 5, 2, lambda v: repr(float(v) + 1e-3))


def swap_winner(inputs, out: Path) -> None:
    copy = checks.read_output(out / "ratfm_copy")
    for sid, k in checks.sample_windows(copy, inputs, BUDGET, SAMPLE, SEED):
        s = inputs[sid]
        pool = checks.domain_pool(inputs, s.domain, BUDGET, POOL_STRIDE, 1.0, SEED)
        _winners, scores = checks.oracle_winners(s, k, BUDGET, pool)
        below = np.where(scores < scores.max() - checks.TOL, scores, -np.inf)
        if np.isfinite(below.max()):
            break
    runner_up = int(np.argmax(below))
    rows = checks.future_slice(s, BUDGET, k)
    swapped = np.abs(pool[2][runner_up] - s.z[rows])
    first = rows.start - int(copy.scores[sid].t_abs[0])
    path = out / "ratfm_copy" / "scores" / f"{sid}.csv"
    for i, value in enumerate(swapped):
        edit_csv(path, first + i, 2, lambda _v, value=value: repr(float(value)))


def flip_label(inputs, out: Path) -> None:
    sid = sorted(inputs)[-1]
    edit_csv(out / "ratfm_copy" / "scores" / f"{sid}.csv", 10, 4, lambda v: str(1 - int(v)))


def edit_report(out: Path, fn) -> None:
    path = out / "ratfm_copy" / "report.json"
    report = json.loads(path.read_text())
    fn(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def alter_domain_mean(inputs, out: Path) -> None:
    def fn(report):
        report["per_domain"]["dom1"]["vus_roc"] += 1e-3

    edit_report(out, fn)


def alter_vus(inputs, out: Path) -> None:
    def fn(report):
        report["per_series"][sorted(inputs)[1]]["vus_pr"] += 1e-6

    edit_report(out, fn)


CASES = (
    ("one raw score perturbed", lambda i, o: perturb_raw(i, o, "ratfm_copy"), "ratfm_copy/scoring"),
    ("retrieval winner swapped for the runner-up", swap_winner, "ratfm_copy/retrieval"),
    ("label flipped", flip_label, "ratfm_copy/scoring"),
    ("domain mean altered", alter_domain_mean, "ratfm_copy/aggregation"),
    ("VUS-PR of one series altered", alter_vus, "ratfm_copy/vus"),
    ("zero-shot raw score perturbed", lambda i, o: perturb_raw(i, o, "zero_shot_naive"),
     "zero_shot_naive/seasonal_naive"),
)


def check_benchmark_json() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errs = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errs.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END_UNITS.items()):
        errs.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    want = [(m, u) for m, u in PER_LAYER] + [("trace.overhead_s", "s")]
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != want:
        errs.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    return errs


def check_absent_name(data: Path) -> list[str]:
    """Trace ``prepare_run`` with ``_kernels.best_lag_batch`` deleted."""
    from ratfm import _kernels, harness

    saved = _kernels.best_lag_batch
    del _kernels.best_lag_batch
    try:
        tracer = Tracer()
        tracer.install()
    finally:
        _kernels.best_lag_batch = saved
    harness.prepare_run(harness.ExperimentConfig(dataset_root=str(data), budget=BUDGET))
    metrics = tracer.metrics()
    errs = []
    if tracer.absent != ["kernels.best_lag_batch"] or "kernels.best_lag_batch.s" in metrics:
        errs.append(f"absent name not left out: {tracer.absent}")
    if not metrics.get("harness.prepare_run.s") or not metrics.get("dataset.points_parsed"):
        errs.append("tracer stopped tracing after an absent name")
    return errs


def main() -> int:
    work = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    failures = check_benchmark_json()
    try:
        data, clean = make_outputs(work / "clean")
        inputs = checks.load_inputs(data)
        for name, errs in all_checks(inputs, clean).items():
            if errs:
                failures.append(f"clean outputs fail {name}: {errs}")
        for i, (label, corrupt, check) in enumerate(CASES):
            bad = work / f"case{i}"
            shutil.copytree(clean, bad, ignore=shutil.ignore_patterns("data"))
            corrupt(inputs, bad)
            if all_checks(inputs, bad)[check]:
                print(f"PASS: {label} rejected by {check}")
            else:
                failures.append(f"{label} not rejected by {check}")
        absent = check_absent_name(data)
        if not absent:
            print("PASS: tracer leaves out an absent name and traces the rest")
        failures += absent
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
