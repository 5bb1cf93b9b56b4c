import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratfm
from ratfm.cli import main

CONFIG = {
    "synth": {
        "domains": 2,
        "series_per_domain": 3,
        "train_len": 700,
        "test_len": 600,
        "noise_std": 0.03,
        "seed": 9,
    },
    "budget": [64, 16, 64],
    "pool_stride": 8,
    "bootstrap_iterations": 20,
    "seed": 9,
}


def write_config(tmp_path, **overrides):
    cfg = dict(CONFIG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynthIngest:
    def test_synth_then_ingest(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main([
            "synth", "--out", str(ds), "--domains", "2", "--series-per-domain", "2",
            "--train-len", "400", "--test-len", "300", "--seed", "3",
        ]) == 0
        meta = tmp_path / "meta.json"
        assert main(["ingest", str(ds), "--out", str(meta)]) == 0
        out = capsys.readouterr().out
        assert "parsed 4 series across 2 domains" in out
        parsed = json.loads(meta.read_text())
        assert len(parsed["series"]) == 4

    def test_ingest_out_creates_missing_directories(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--domains", "1",
                     "--series-per-domain", "2", "--seed", "3"]) == 0
        meta = tmp_path / "no" / "such" / "meta.json"
        assert main(["ingest", str(ds), "--out", str(meta)]) == 0
        assert len(json.loads(meta.read_text())["series"]) == 2

    def test_ingest_missing_dataset(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nothing")]) == 3

    def test_ingest_bad_file(self, tmp_path):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "a_b_10_20_30.txt").write_text("1 2 oops")
        assert main(["ingest", str(ds)]) == 3

    def test_unreadable_series_files_exit_3(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        bad = ds / "a_b_10_20_30.txt"
        bad.write_bytes(b"1 2 \xff")
        for argv in (["ingest", str(ds)],
                     ["run", "--setting", "zero_shot_naive", "--dataset", str(ds),
                      "--out", str(tmp_path / "out")]):
            assert main(argv) == 3
            assert f"dataset error: cannot read {bad}" in capsys.readouterr().err
        bad.unlink()
        (ds / "x_dom_5_6_7.txt").mkdir()
        assert main(["ingest", str(ds)]) == 3  # no series file left

    def test_ingest_rejects_duplicate_series_ids(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        for sub in ("a", "b"):
            assert main(["synth", "--out", str(ds / sub), "--domains", "1",
                         "--series-per-domain", "1", "--seed", "3"]) == 0
        assert main(["ingest", str(ds)]) == 3
        assert "duplicate series id" in capsys.readouterr().err

    def test_ingest_rejects_what_run_cannot_prepare(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--domains", "1",
                     "--series-per-domain", "2", "--seed", "3"]) == 0
        assert main(["ingest", str(ds)]) == 0
        capsys.readouterr()
        (ds / "003_dom0_5_6_7.txt").write_text(" ".join(map(str, range(20))))
        assert main(["ingest", str(ds)]) == 3
        ingest_err = capsys.readouterr().err
        assert main(["run", "--setting", "zero_shot_naive", "--dataset", str(ds),
                     "--out", str(tmp_path / "out")]) == 3
        assert ingest_err == capsys.readouterr().err
        assert ingest_err == (
            "dataset error: series '003_dom0_5_6_7' cannot be prepared: "
            "need at least 8 points, got 5\n"
        )

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_overflowing_statistics_exit_3(self, tmp_path, command):
        # finite values whose training mean overflows float64; a fresh
        # process shows any numpy warning on stderr as a user would see it
        ds = tmp_path / "ds"
        ds.mkdir()
        values = [1e307 * (1.5 + (i % 7) / 10) for i in range(300)]
        (ds / "001_dom_150_200_210.txt").write_text(" ".join(map(repr, values)))
        argv = {
            "ingest": ["ingest", str(ds)],
            "run": ["run", "--setting", "zero_shot_naive", "--dataset", str(ds),
                    "--out", str(tmp_path / "out")],
        }[command]
        env = dict(os.environ, PYTHONPATH=str(Path(ratfm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ratfm.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == (
            "dataset error: series '001_dom_150_200_210': "
            "values overflow float64 when standardized\n"
        )


class TestRun:
    def test_runs_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma (10-15 ms and ~1.2 MB); a fresh
        # process shows whether any run step still reaches it
        script = (
            "import sys\n"
            "from ratfm.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['synth', '--out', out + '/ds', '--domains', '2',\n"
            "             '--series-per-domain', '2', '--train-len', '800',\n"
            "             '--test-len', '600']) == 0\n"
            "for setting in ('zero_shot_naive', 'ratfm_copy'):\n"
            "    assert main(['run', '--setting', setting, '--dataset', out + '/ds',\n"
            "                 '--budget', '128,32,128', '--out', out + '/' + setting]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'a run imported numpy.ma'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ratfm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ratfm_copy" / "report.json").is_file()

    def test_run_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--setting", "ratfm_copy", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "per_series.csv").exists()
        assert (out / "config.json").exists()
        assert sorted((out / "scores").glob("*.csv"))
        report = json.loads((out / "report.json").read_text())
        assert report["setting"] == "ratfm_copy"
        assert report["global"]["n_series"] == 6

    def test_run_no_sma_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--setting", "zero_shot_naive", "--config", str(cfg),
                     "--out", str(out), "--no-sma"]) == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["sma"] is False

    def test_budget_flag_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--setting", "zero_shot_naive", "--config", str(cfg),
                     "--out", str(out), "--budget", "32,8,32"]) == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["budget"] == [32, 8, 32]

    def test_config_errors_exit_2(self, tmp_path):
        assert main(["run", "--setting", "ratfm_copy"]) == 2
        cfg = write_config(tmp_path)
        assert main(["run", "--setting", "ratfm_copy", "--config", str(cfg),
                     "--budget", "junk"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--setting", "ratfm_copy", "--config", str(bad)]) == 2
        unknown = write_config(tmp_path, extra_key=1)
        assert main(["run", "--setting", "ratfm_copy", "--config", str(unknown)]) == 2

    def test_malformed_config_files_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for raw in ({"budget": [1, 2]}, [1, 2]):
            bad.write_text(json.dumps(raw))
            assert main(["run", "--setting", "ratfm_copy", "--config", str(bad)]) == 2
            assert "config error:" in capsys.readouterr().err

    def test_dataset_error_exit_3(self, tmp_path):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "a_b_10_20_30.txt").write_text("1 2 oops")
        assert main(["run", "--setting", "ratfm_copy", "--dataset", str(ds),
                     "--out", str(tmp_path / "out")]) == 3

    def test_series_too_short_to_prepare_exit_3(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--domains", "1",
                     "--series-per-domain", "2", "--seed", "3"]) == 0
        (ds / "003_dom0_5_6_7.txt").write_text(" ".join(map(str, range(20))))
        assert main(["run", "--setting", "zero_shot_naive", "--dataset", str(ds),
                     "--out", str(tmp_path / "out")]) == 3
        assert "'003_dom0_5_6_7'" in capsys.readouterr().err

    def test_missing_dataset_root_exit_3(self, tmp_path):
        assert main(["run", "--setting", "ratfm_copy",
                     "--dataset", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("where", ["run --seed", "synth --seed", "config synth.seed"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, where):
        # numpy's generators reject negative seeds; validation rejects them first
        out = str(tmp_path / "out")
        if where == "synth --seed":
            argv = ["synth", "--out", out, "--seed", "-1"]
        else:
            synth = dict(CONFIG["synth"], seed=-2 if where == "config synth.seed" else 9)
            cfg = write_config(tmp_path, synth=synth)
            argv = ["run", "--setting", "zero_shot_naive", "--config", str(cfg), "--out", out]
            if where == "run --seed":
                argv += ["--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_rejected_synth_spec_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "negsynth" / "ds"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists() and not out.parent.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_ridge_reg_exits_2(self, tmp_path, capsys, value):
        # without the check, NaN reaches the solver and the run dies with
        # "linear produced non-finite values" (exit 1)
        cfg = write_config(tmp_path, ridge_reg=float(value))
        assert value in cfg.read_text()
        assert main(["run", "--setting", "ratfm_linear", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "ridge_reg must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_noise_std_exits_2_and_creates_no_directory(
        self, tmp_path, capsys, value
    ):
        # NaN would fail the "noise_std > 0" test and write noise-free series
        out = tmp_path / "nansynth" / "ds"
        assert main(["synth", "--out", str(out), f"--noise-std={value}"]) == 2
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not out.exists() and not out.parent.exists()

    def test_bad_anomaly_len_exit_2(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "ds"),
                     "--anomaly-len", "banana"]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "config.json", "--out", "out", "--fractions", ""],
        ["run", "--setting", "zero_shot_naive", "--config", "config.json",
         "--out", "out", "--budget", ""],
        ["run", "--setting", "zero_shot_naive", "--config", "config.json", "--out", ""],
        ["run", "--setting", "zero_shot_naive", "--config", "config.json",
         "--out", "out", "--dataset", ""],
        ["synth", "--out", "out", "--anomaly-kinds", ""],
        ["synth", "--out", "out", "--anomaly-len", ""],
        ["synth", "--out", ""],
        ["ingest", "data", "--out", ""],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_empty_flag_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # an empty value is not an absent flag: it must not fall back to the
        # default (four fractions, 512/96/512, ratfm_out/, every anomaly
        # kind) or to the working directory
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, bootstrap_iterations=0)
        assert main(argv) == 2
        assert "config error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("field", ["out_dir", "dataset_root"])
    def test_empty_config_path_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, field
    ):
        # an empty path in a config file would name the working directory:
        # the run would write its reports there, or load every series in it
        monkeypatch.chdir(tmp_path)
        overrides = {field: "", "bootstrap_iterations": 0}
        if field == "dataset_root":
            overrides["synth"] = None
        write_config(tmp_path, **overrides)
        argv = ["run", "--setting", "zero_shot_naive", "--config", "config.json"]
        assert main(argv) == 2
        assert f"config error: {field} must not be empty" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


    def test_non_ascii_file_name_under_an_ascii_locale(self, tmp_path):
        # an ASCII locale decodes a file name's bytes to surrogate escapes;
        # the run reads them as UTF-8 and emits what a UTF-8 locale emits
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--domains", "2",
                     "--series-per-domain", "2", "--train-len", "800",
                     "--test-len", "600", "--seed", "3"]) == 0
        root = os.fsencode(data)
        first = sorted(os.listdir(root))[0]
        renamed = "é".encode() + first
        os.rename(os.path.join(root, first), os.path.join(root, renamed))
        locales = {
            "utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
            "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        }
        emitted = {}
        for name, env in locales.items():
            cwd = tmp_path / name
            cwd.mkdir()
            env = dict(os.environ, **env, PYTHONPATH=str(Path(ratfm.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "ratfm.cli", "run", "--setting", "zero_shot_naive",
                 "--dataset", str(data), "--budget", "128,32,128", "--out", "out"],
                cwd=cwd, capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            out = cwd / "out"
            emitted[name] = {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
            }
            emitted[name + " stdout"] = proc.stdout
        assert emitted["ascii"] == emitted["utf8"]
        assert emitted["ascii stdout"] == emitted["utf8 stdout"]
        score = Path("scores", os.fsdecode(renamed[: -len(b".txt")] + b".csv"))
        assert len(emitted["ascii"]) == 7 and score in emitted["ascii"]
        assert renamed[:-4] in emitted["ascii"][score]

    def test_file_name_that_is_not_utf8_is_a_dataset_error(self, tmp_path):
        # a Latin-1 name keeps a surrogate escape in any locale, and no
        # report, CSV or score file name can be written with one
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--domains", "2",
                     "--series-per-domain", "2", "--train-len", "800",
                     "--test-len", "600", "--seed", "3"]) == 0
        root = os.fsencode(data)
        first = sorted(os.listdir(root))[0]
        renamed = "é".encode("latin-1") + first
        os.rename(os.path.join(root, first), os.path.join(root, renamed))
        locales = {
            "utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
            "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        }
        commands = {
            "ingest": ["ingest", str(data), "--out", "meta/series.json"],
            "run": ["run", "--setting", "zero_shot_naive", "--dataset", str(data),
                    "--budget", "128,32,128", "--out", "out"],
        }
        for name, env in locales.items():
            env = dict(os.environ, **env, PYTHONPATH=str(Path(ratfm.__file__).parents[1]))
            for command, args in commands.items():
                cwd = tmp_path / f"{name}_{command}"
                cwd.mkdir()
                proc = subprocess.run(
                    [sys.executable, "-m", "ratfm.cli", *args],
                    cwd=cwd, capture_output=True, env=env, timeout=120,
                )
                assert proc.returncode == 3, proc.stderr
                assert b"dataset error: " in proc.stderr
                assert b"file name is not UTF-8" in proc.stderr
                assert b"Traceback" not in proc.stderr
                assert list(cwd.iterdir()) == []


class TestSweepAndDiag:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bootstrap_iterations=0)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--fractions", "1.0,0.5"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "fraction,domain,vus_roc,n_series"
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("where", ["--fractions", "config fractions",
                                       "empty config fractions"])
    def test_repeated_fraction_exits_2(self, tmp_path, capsys, where):
        # an empty list is rejected too, rather than writing a header-only table
        out = tmp_path / "out"
        if where == "--fractions":
            cfg = write_config(tmp_path, bootstrap_iterations=0)
            argv = ["sweep", "--config", str(cfg), "--out", str(out),
                    "--fractions", "0.5,1.0,0.50"]
        else:
            fractions = [] if where.startswith("empty") else [1.0, 0.5, 1]
            cfg = write_config(tmp_path, bootstrap_iterations=0, fractions=fractions)
            argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        message = {
            "--fractions": "fraction 0.5 is repeated",
            "config fractions": "fraction 1 is repeated",
            "empty config fractions": "fractions must not be empty",
        }[where]
        assert message in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_diag_similarity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bootstrap_iterations=0)
        out = tmp_path / "out"
        assert main(["diag-similarity", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag["overall"]) >= {"example_future", "aligned_segment", "best_segment"}
        assert (out / "diagnostics.csv").exists()
