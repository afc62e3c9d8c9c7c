from pathlib import Path

import pytest

from timeloc.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert run("simulate", "--scenario", "simple", "--days", "10", "--seed", "5", "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_trace_accel_and_truth(self, dataset_dir):
        names = {p.name for p in Path(dataset_dir).iterdir()}
        assert names == {"trace.jsonl", "accel.jsonl", "ground_truth.csv"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate", "--scenario", "mining", "--seed", "9", "--out", a)
        run("simulate", "--scenario", "mining", "--seed", "9", "--out", b)
        assert read_tree(a) == read_tree(b)

    def test_unknown_scenario_fails_validation(self, tmp_path, capsys):
        assert run("simulate", "--scenario", "no-such", "--out", tmp_path) == 1
        assert "preset" in capsys.readouterr().err


class TestMineHome:
    def test_prints_tally_and_winner(self, dataset_dir, capsys):
        assert run("mine-home", "--traces", dataset_dir) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "bssid,votes"
        assert lines[-1].startswith("winner,")

    def test_deterministic_stdout(self, dataset_dir, capsys):
        run("mine-home", "--traces", dataset_dir)
        first = capsys.readouterr().out
        run("mine-home", "--traces", dataset_dir)
        assert capsys.readouterr().out == first


class TestProfileAndPredict:
    def test_build_then_predict(self, dataset_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert run("build-profile", "--traces", dataset_dir, "--device", "d1", "--store", store) == 0
        capsys.readouterr()
        import json

        doc = json.loads((store / "d1.profile.json").read_text())
        day = doc["window"][-1]
        bssid, (tl, tdr) = sorted(day["entries"].items())[0]
        assert run(
            "predict", "--store", store, "--device", "d1", "--bssid", bssid, "--tdr", str(tdr)
        ) == 0
        out = capsys.readouterr().out
        assert "lookups=2" in out

    def test_store_env_var_default(self, dataset_dir, tmp_path, monkeypatch, capsys):
        store = tmp_path / "envstore"
        monkeypatch.setenv("TLS_PROFILE_STORE", str(store))
        assert run("build-profile", "--traces", dataset_dir, "--device", "d2") == 0
        assert (store / "d2.profile.json").exists()

    def test_unknown_bssid_is_validation_error(self, dataset_dir, tmp_path, capsys):
        store = tmp_path / "store2"
        run("build-profile", "--traces", dataset_dir, "--device", "d3", "--store", store)
        capsys.readouterr()
        rc = run(
            "predict", "--store", store, "--device", "d3",
            "--bssid", "0e:0e:0e:0e:0e:0e", "--tdr", "50",
        )
        assert rc == 1

    def test_nn_prediction_from_trace_directory(self, dataset_dir, capsys):
        from timeloc.cli import _load_days

        last_day = _load_days(str(dataset_dir))[-1]
        ts = last_day.scans[40].ts
        assert run("predict", "--method", "nn", "--traces", dataset_dir, "--ts", ts) == 0
        out = capsys.readouterr().out
        assert out.startswith("tl_s=") and "comparisons=" in out


class TestDetectDoor:
    def test_emits_ts_column(self, dataset_dir, capsys):
        assert run("detect-door", "--traces", dataset_dir) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ts"
        assert len(lines) > 1
        assert all(line.isdigit() for line in lines[1:])


class TestFsmRun:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("fsm-run", "--scenario", "simple", "--seed", "3", "--out", a) == 0
        assert run("fsm-run", "--scenario", "simple", "--seed", "3", "--out", b) == 0
        assert (a / "stats.csv").read_text().splitlines()[0] == "wifi_scans,gps_reads,accel_samples,wakeups"
        assert read_tree(a) == read_tree(b)


class TestEvaluateAndSweep:
    def test_evaluate_writes_reports(self, dataset_dir, tmp_path):
        out = tmp_path / "rep"
        assert run("evaluate", "--traces", dataset_dir, "--out", out, "--seed", "2") == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"report.csv", "cdf_tls.csv", "cdf_nn.csv"}
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "method,level,n,median_abs_s,pct_within_100s,early_fraction,max_abs_s,probe_cost"

    def test_evaluate_deterministic(self, dataset_dir, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        run("evaluate", "--traces", dataset_dir, "--out", a, "--seed", "2")
        run("evaluate", "--traces", dataset_dir, "--out", b, "--seed", "2")
        assert read_tree(a) == read_tree(b)

    def test_insufficient_history_exits_one(self, tmp_path, capsys):
        short = tmp_path / "short"
        run("simulate", "--scenario", "simple", "--days", "6", "--seed", "1", "--out", short)
        rc = run("evaluate", "--traces", short, "--out", tmp_path / "r")
        assert rc == 1
        assert "7" in capsys.readouterr().err

    def test_sweep_needs_two_levels(self, dataset_dir, tmp_path, capsys):
        rc = run("sweep", "--traces", dataset_dir, "--out", tmp_path / "s", "--levels", "-70")
        assert rc == 1

    def test_evaluate_threshold_all_keeps_every_ap(self, dataset_dir, tmp_path):
        out = tmp_path / "all"
        assert run("evaluate", "--traces", dataset_dir, "--out", out, "--threshold", "all") == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["tls", "all"], ["nn", "all"]]

    def test_sweep_writes_table(self, dataset_dir, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--traces", dataset_dir, "--out", out, "--levels", "all,-70") == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # two levels x two methods


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default: -70" in text
        assert "default: both" in text

    def test_predict_help_marks_window_days_nn_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "sliding window length (nn) (default: 7)" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--traces", "t", "--out", "o", "--threshold", "abc"],
            ["sweep", "--traces", "t", "--out", "o", "--levels", "all,x"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "-1"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "0"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "6"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "x"],
            ["predict", "--method", "nn", "--traces", "t", "--ts", "1", "--window-days", "0"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_bad_flag_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}" in err and "Traceback" not in err

    def test_build_profile_accepts_a_longer_window(self, dataset_dir, tmp_path, capsys):
        store = tmp_path / "store"
        args = ("build-profile", "--traces", dataset_dir, "--device", "d", "--store", store)
        assert run(*args, "--window-days", "8") == 0
        assert "8 window day(s)" in capsys.readouterr().out
