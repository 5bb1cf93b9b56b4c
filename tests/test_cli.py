import json

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


class TestRun:
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

    def test_bad_anomaly_len_exit_2(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "ds"),
                     "--anomaly-len", "banana"]) == 2


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

    def test_diag_similarity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bootstrap_iterations=0)
        out = tmp_path / "out"
        assert main(["diag-similarity", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag["overall"]) >= {"example_future", "aligned_segment", "best_segment"}
        assert (out / "diagnostics.csv").exists()
