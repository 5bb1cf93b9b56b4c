#!/usr/bin/env python3
"""Pipeline benchmark for ratfm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``ratfm`` is imported from its ``src/``.
The workload's input files are written once (seeded by ``--seed``), then
repetitions run back to back, each in a fresh process (``rep.py``), for
about ``--seconds`` seconds.  The first repetition's outputs are checked
against independent recomputations (``checks.py``) and every later one
must emit byte-identical files.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions; ``setup_s`` is the median over every ``prepare_run`` timed
in the run (see ``rep.SETUP_SAMPLE_S``).  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (medians) plus the
tracer's overhead, traced minus untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from checks import check_workload  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a run must end within 180 s; a repetition is killed past this point
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "windows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class RepFailed(RuntimeError):
    pass


def child_env(workers: int) -> dict[str, str]:
    """Numpy backend; the workers' BLAS pools together no larger than the
    CPUs we may run on."""
    nproc = len(os.sched_getaffinity(0))
    n = str(max(1, nproc // workers))
    threads = {v: n for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **threads, "RATFM_DISABLE_NUMBA": "1"}


def child(action: str, workload, seed: int, data: Path, deadline: float,
          out: Path | None = None, trace: bool = False) -> dict | None:
    cmd = [sys.executable, str(HERE / "rep.py"), action, "--workload", workload.name,
           "--seed", str(seed), "--data", str(data)]
    if out is not None:
        cmd += ["--out", str(out)]
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        env = child_env(workload.config.get("workers", 1))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{action} rep did not finish within {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RepFailed(f"{action} rep exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if action == "run" else None


def digest(out: Path) -> str:
    """Hash of every emitted file (the span dump aside), by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "spans.json"):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    data = work / "data"
    child("inputs", workload, seed, data, deadline)

    reps: list[tuple[bool, dict]] = []
    spent: list[float] = []
    errors: list[str] = []
    first_digest = None
    while True:
        traced = trace and len(reps) % 2 == 1
        out = work / f"rep{len(reps)}"
        t0 = time.perf_counter()
        result = child("run", workload, seed, data, deadline, out, traced)
        spent.append(time.perf_counter() - t0)
        reps.append((traced, result))
        print(f"rep {len(reps)}{' traced' if traced else ''}: wall_s {result['wall_s']:.3f} "
              f"setup_s {result['setup_s']:.3f} cpu_s {result['cpu_s']:.3f} "
              f"peak_rss_mb {result['peak_rss_mb']:.1f}", file=sys.stderr)
        # checks run outside every timed region
        if first_digest is None:
            try:
                errors += check_workload(workload, data, out, seed)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                errors.append(f"outputs could not be checked: {exc!r}")
            first_digest = digest(out)
        elif digest(out) != first_digest:
            errors.append(f"rep {len(reps)} emitted files that differ from rep 1")
        shutil.rmtree(out)
        need_pair = trace and len(reps) % 2 == 1
        # whole repetitions until the run has spent --seconds
        if not need_pair and sum(spent) >= seconds:
            break

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    plain = [r for t, r in reps if not t]
    if trace:
        traced_reps = [r for t, r in reps if t]
        # a metric absent from the tracer's output (its name is gone) is left out
        metrics = {
            m: {"value": statistics.median(r["layers"][m] for r in traced_reps), "unit": u}
            for m, u in PER_LAYER if all(m in r["layers"] for r in traced_reps)
        }
        overhead = (statistics.median(r["wall_s"] for r in traced_reps)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for r in plain:
            r["windows_per_s"] = r["windows"] / r["wall_s"]
        metrics = {
            m: {"value": statistics.median(r[m] for r in plain), "unit": u}
            for m, u in END_TO_END_UNITS.items()
        }
        setups = [x for r in plain for x in r["setup_samples"]]
        metrics["setup_s"]["value"] = statistics.median(setups)
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for _t, r in reps),
        "failed": sum(r["failed"] for _t, r in reps),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ratfm pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ratfm" / "__init__.py").is_file():
        print(f"no ratfm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
