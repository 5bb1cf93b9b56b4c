"""Golden outputs: every file a small run emits, pinned byte for byte.

The config is criterion 10's (tests/test_acceptance.py).  A change that
moves a digest changes what a run computes or writes, and must say which
numbers changed and why.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratfm
from ratfm.cli import main

C10_CONFIG = {
    "synth": {
        "domains": 2,
        "series_per_domain": 3,
        "train_len": 700,
        "test_len": 600,
        "noise_std": 0.03,
        "seed": 17,
    },
    "budget": [64, 16, 64],
    "pool_stride": 8,
    "bootstrap_iterations": 200,
    "seed": 17,
}

# Recorded with numpy 2.4.6 (its bundled OpenBLAS 0.3.31) on an
# "Intel(R) Xeon(R) Processor" (2 CPUs).  numpy's FFTs and reductions may
# round differently in another version, and OpenBLAS (built with
# DYNAMIC_ARCH) and numpy's SIMD dispatch pick kernels per CPU model, so
# the test skips on another numpy or CPU model.
DIGESTS_NUMPY = "2.4.6"
DIGESTS_CPU = "Intel(R) Xeon(R) Processor"
DIGESTS = {
    "zero_shot_naive": {
        "config.json": "ee0ecd96e3be8e5ec9a5cf10aa4fc47b70dc5bb730fc0885e26b33ec366bc7d3",
        "per_series.csv": "637e0fc0f0b7033e3e0c5a3b83aca804c99b8c07c29e97f4ceed0ebd90f6d5ae",
        "report.json": "4eda27b03a43d7d0c08059b6fde1d75097bfa4fb71002448d50ec13096152b9b",
        "scores/001_dom0_700_1138_1194.csv": "9533bbf75b8bf5723ae35e91f7c1cbd2d05c41c88de9216039614a6b971b9fa7",
        "scores/002_dom0_700_1166_1213.csv": "1b899ac85af6ada819cf65224828b4bbeb0f66c96234b365a93cb7f7a756ccf0",
        "scores/003_dom0_700_1179_1209.csv": "45b44fe1e5c13104ab778a8183ea1208f702fe096614112d78390c076677e107",
        "scores/004_dom1_700_1151_1182.csv": "1142dc0b7da238de6be993eadac63bf48e4d1989b76cb7e4d3983d37d93c9b4b",
        "scores/005_dom1_700_1143_1198.csv": "70583c9416ca4225c28055ad8bc1c2e55ae5444077c14b82ff5e0096b92ebf8f",
        "scores/006_dom1_700_1186_1240.csv": "fc123d183c2687e9392dbc7647759e58b30f5c7625e27863374b3047edc7ecb2",
    },
    "ratfm_copy": {
        "config.json": "ee0ecd96e3be8e5ec9a5cf10aa4fc47b70dc5bb730fc0885e26b33ec366bc7d3",
        "per_series.csv": "2851e51ffff8cc1d434d687c300a7e7f9c61b0bc9808c7bc469a60942cef70c6",
        "report.json": "c0ff0f8fbacf6f296245ec498e20c14b948df06f6af714297dea921ec7ce96f4",
        "scores/001_dom0_700_1138_1194.csv": "cdcb6d7510050857d9459f813f745aa86299af63d22a41ed995f6baf6d84dffa",
        "scores/002_dom0_700_1166_1213.csv": "ee6655eb1c7095eb14d10dc215818f4b734d7b63056fdadfdb7b5be0aec68d0e",
        "scores/003_dom0_700_1179_1209.csv": "b50598106c690f036fb152ca5e322656c3ed9f101c0e9d1b2b9f95abf40c3f39",
        "scores/004_dom1_700_1151_1182.csv": "cd588f20a4f69651bfa5fa1d5fb9d8b2c7862e6912671f6c35ca95802d30d09a",
        "scores/005_dom1_700_1143_1198.csv": "eeece0b4da819db5f38ea03078b01e6352fbaa2649bd063137c0550ab21a7134",
        "scores/006_dom1_700_1186_1240.csv": "2dcc6dd6a0f31d28b8e264231531aade175568b7cacba838cdee3c3053fc7c97",
    },
    "ratfm_linear": {
        "config.json": "ee0ecd96e3be8e5ec9a5cf10aa4fc47b70dc5bb730fc0885e26b33ec366bc7d3",
        "per_series.csv": "f746ebd94f19689e8ab97d8159bdb485d447b671e9bdc5c7f447d191236c1ab2",
        "report.json": "a2569698f271148a0d93b28170cb1fe2e68c9aeba230fc654289e283dd3aa99c",
        "scores/001_dom0_700_1138_1194.csv": "178c7c16cf3051be3a6c67fd87b5dc121c5dfccd76b991d3d6cd17eaf18bfbe8",
        "scores/002_dom0_700_1166_1213.csv": "19163ff5c2072280762f31d65f1f4114493dba218ce6fdbd03bf26ebdbae3f84",
        "scores/003_dom0_700_1179_1209.csv": "a4c2648a5e9ff755d0043035d627e41bface811043aa5c3d99ba6e257013888b",
        "scores/004_dom1_700_1151_1182.csv": "982b373fcf5c146721f81f240b46383f17cb643b016b1296c1e36d8e6d5847bf",
        "scores/005_dom1_700_1143_1198.csv": "229198a73067f41946c8b85955613dd9c72c9042912d26d9f3d115486d8a2d79",
        "scores/006_dom1_700_1186_1240.csv": "9691355193a95222568bc458f9ebb7da8ea741ca1c31c737f92e3dac967cb5a5",
    },
}


def cpu_model() -> str:
    """The CPU's model name as /proc/cpuinfo gives it, else the platform's."""
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def write_c10_config(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(C10_CONFIG))
    return path


def emitted(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, by path relative to it."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("setting", sorted(DIGESTS))
def test_emitted_files_match_recorded_digests(tmp_path, setting):
    if (np.__version__, cpu_model()) != (DIGESTS_NUMPY, DIGESTS_CPU):
        pytest.skip(f"digests recorded with numpy {DIGESTS_NUMPY} on {DIGESTS_CPU!r}; "
                    f"this is numpy {np.__version__} on {cpu_model()!r}, whose "
                    f"BLAS and SIMD kernels may round differently")
    out = tmp_path / "out"
    assert main(["run", "--setting", setting, "--config", str(write_c10_config(tmp_path)),
                 "--out", str(out)]) == 0
    got = {name: hashlib.sha256(data).hexdigest() for name, data in emitted(out).items()}
    assert got == DIGESTS[setting]


@pytest.mark.parametrize("setting", ["zero_shot_naive", "ratfm_copy", "ratfm_linear"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, setting):
    cfg = write_c10_config(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(ratfm.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ratfm.cli", "run", "--setting", setting,
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(emitted(out))
    assert outputs[0] == outputs[1]
