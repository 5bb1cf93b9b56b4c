"""One repetition of a workload, run in a fresh process by ``run.py``.

    python3 perfbench/rep.py inputs --workload W --seed N --data DIR
    python3 perfbench/rep.py run --workload W --seed N --data DIR --out DIR [--trace]

``inputs`` writes the workload's UCR-style files with ``write_synthetic``.
``run`` makes the same public calls the CLI makes (``prepare_run``,
``run_setting``, ``similarity_diagnostics``, ``sweep_pool_fraction``,
``emit_reports``), emits every report under ``--out`` and prints one JSON
line with the rep's timings.  ``ratfm`` is imported from ``src/`` of the
checkout the command runs in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up time is short and the host's speed drifts within seconds, so an
# untraced repetition repeats prepare_run after its timed region until its
# set-up samples add up to this many seconds; setup_s is their median
SETUP_SAMPLE_S = 2.0


def _import_ratfm() -> None:
    sys.path.insert(0, str(SRC))
    import ratfm

    if Path(ratfm.__file__).resolve().parent != SRC / "ratfm":
        raise SystemExit(f"ratfm imported from {ratfm.__file__}, not {SRC}")


def _numba_active() -> bool:
    try:
        from ratfm import _kernels
    except ImportError:  # numpy is then the only backend
        return False
    use_numba = getattr(_kernels, "use_numba", None)
    return bool(use_numba and use_numba())


def write_inputs(workload, seed: int, data: Path) -> None:
    from ratfm.synth import SynthSpec, write_synthetic

    write_synthetic(SynthSpec(**workload.synth, seed=seed), data)


def run_rep(workload, seed: int, data: Path, out: Path, tracer=None) -> dict:
    from ratfm import harness
    from ratfm.forecast import Budget

    if _numba_active():
        raise SystemExit("the benchmark measures the numpy backend; numba is active")
    config = harness.ExperimentConfig(
        dataset_root=str(data), seed=seed, budget=Budget(*workload.budget),
        out_dir=str(out), **workload.config,
    )

    # every call goes through the module attribute so a tracer sees it
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    prepared = harness.prepare_run(config)
    t_setup = time.perf_counter()
    reports = {}
    for setting in workload.settings:
        reports[setting] = harness.run_setting(config, setting, data=prepared)
    diag = None
    if workload.diagnostics:
        diag = harness.similarity_diagnostics(config, data=prepared)
    if workload.sweep_fractions:
        sweep = harness.sweep_pool_fraction(
            config, list(workload.sweep_fractions), setting="ratfm_copy"
        )
        for fraction, report in sweep.reports.items():
            reports[f"sweep_{fraction}"] = report
    for name, report in reports.items():
        harness.emit_reports(report, out / name)
    if diag is not None:
        (out / "diagnostics.json").write_text(
            json.dumps(diag.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    t_end = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    windows = sum(
        rec["n_windows"] for r in reports.values() for rec in r.per_series.values()
    )
    if diag is not None:
        windows += diag.overall["n_windows"]
    result = {
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "windows": windows,
        "attempted": workload.ops_per_rep(),
        "failed": sum(len(r.skipped) for r in reports.values()),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(out / "spans.json")
        return result
    samples = [result["setup_s"]]
    while sum(samples) < SETUP_SAMPLE_S:
        t = time.perf_counter()
        harness.prepare_run(config)
        samples.append(time.perf_counter() - t)
    result["setup_samples"] = samples
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("inputs", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.action == "run" and args.out is None:
        parser.error("run needs --out")
    workload = WORKLOADS[args.workload]

    _import_ratfm()
    if args.action == "inputs":
        write_inputs(workload, args.seed, args.data)
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_rep(workload, args.seed, args.data, args.out, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
