import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from timeloc import eval_harness, home_mining, time_map
from timeloc.cli import _load_days, main
from timeloc.trace_model import (
    DAY_S,
    Bssid,
    day_slice_start,
    parse_accel_file,
    serialize_accel_samples,
    serialize_scan_records,
)


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


@pytest.fixture(scope="module")
def relocated(tmp_path_factory):
    """20 relocation days, seed 5: the user moves before the night of day 11."""
    out = tmp_path_factory.mktemp("relocation")
    argv = ("simulate", "--scenario", "relocation", "--days", "20", "--seed", "5", "--out", out)
    assert run(*argv) == 0
    return out, _load_days(str(out))


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

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("[route]\nap_count = x\n", "invalid literal for int()"),
            ("[modes]\nwalk = 1.0\n", "needs a speed factor and a weight"),
            ("ap_count = 3\n", "File contains no section headers."),
            ("[relocation]\nnew_home = 1\n", "missing key 'move_day'"),
            ("[days]\ndepart = 25:99\n", "time '25:99' is not HH:MM from 00:00 to 23:59"),
            ("[night]\nmorning_depart = 08:60\n", "time '08:60' is not HH:MM from 00:00 to 23:59"),
            ("[days]\ndepart = 86400\n", "time '86400' is not a second of the day in [0, 86400)"),
            ("[relocation]\nmove_day = -3\n", "move_day must be >= 0"),
            ("[days]\nn_days = 0\n", "n_days must be >= 1"),
            ("[noise]\ndropout_prob = 2\n", "dropout_prob outside [0, 1]"),
            ("[route]\nhome_lat = 100\n", "latitude 100.0 outside [-90, 90]"),
            ("[days]\nn_day = 30\n", "unknown key [days] n_day"),
            ("[noize]\nrssi_sigma_db = 9\n", "unknown key [noize] rssi_sigma_db"),
            ("[DEFAULT]\nn_days = 5\n[days]\n[route]\n", "unknown key [route] n_days"),
            ("[DEFAULT]\nn_days = 5\n", "unknown key [DEFAULT] n_days"),
            ("[days]\nstart_day = 9999-12-31\nn_days = 2\n", "2 days from 9999-12-31 run past 9999-12-31"),
            ("[route]\nweak_bridge = maybe\n", "[route] weak_bridge = 'maybe' is not one of 1/yes/true/on"),
            ("[modes]\nwalk = 1.0 0.5 junk\n", "needs a speed factor and a weight and nothing else"),
            ("[noise]\nrssi_sigma_db = nan\n", "rssi_sigma_db must be finite and >= 0"),
            ("[modes]\nwalk = nan 1\n", "speed_factor must be finite and > 0"),
            ("[modes]\nspeed_jitter = inf\n", "speed_jitter_frac outside [0, 1)"),
            ("[modes]\nwalk = 1 inf\n", "mode weights must be finite and >= 0"),
            ("[days]\ndepart_jitter_s = -1\n", "depart_time_jitter_s must be >= 0"),
            ("[days]\ndetour_prob = 1\ndetour_duration_s = -10000\n", "detour_duration_s must be >= 0"),
            ("[night]\nneighbor_count = -1\n", "night neighbor_count must be >= 0"),
            ("[night]\nneighbor_dwell_s = -5\n", "night neighbor_dwell_s must be >= 0"),
            (
                "[days]\ndepart = 11:59\ndepart_jitter_s = 600\n",
                "day 2024-01-01: the evening commute runs into the morning departure",
            ),
            ("[days]\ndepart = 07:55\n", "day 2024-01-01: the evening commute runs into the morning departure"),
            (
                "[night]\nmorning_depart = 18:05\n",
                "day 2024-01-01: the evening commute runs into the morning departure",
            ),
            (
                "[days]\ndepart = 12:00\ndepart_jitter_s = 600\n",
                "day 2024-01-02: the evening commute begins before the slice's noon",
            ),
            ("[route]\nduration_s = 30\n", "route duration 30 s must exceed the home range 40 s"),
        ],
        ids=[
            "bad-int",
            "mode-without-weight",
            "no-section-header",
            "relocation-without-move-day",
            "hour-out-of-range",
            "minute-out-of-range",
            "seconds-out-of-range",
            "negative-move-day",
            "zero-days",
            "dropout-above-one",
            "latitude-out-of-range",
            "unknown-key",
            "unknown-section",
            "default-key-that-a-section-does-not-read",
            "default-key-without-a-section",
            "calendar-past-the-last-date",
            "boolean-that-is-not-a-boolean-word",
            "mode-with-a-third-value",
            "nan-rssi-sigma",
            "nan-speed-factor",
            "infinite-speed-jitter",
            "infinite-mode-weight",
            "negative-depart-jitter",
            "negative-detour-duration",
            "negative-neighbor-count",
            "negative-neighbor-dwell",
            "evening-commute-past-the-slice-end",
            "evening-commute-before-the-morning",
            "morning-departure-in-the-evening",
            "evening-commute-before-the-slice-start",
            "route-shorter-than-home-range",
        ],
    )
    def test_malformed_scenario_file_is_one_error_line(self, tmp_path, capsys, text, detail):
        path = tmp_path / "f.ini"
        path.write_text(text, encoding="utf-8")
        assert run("simulate", "--scenario", path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed scenario file {str(path)!r}: ")
        assert detail in err and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("ts", [100_000_000_000_000_000, -100_000_000_000_000])
    def test_a_timestamp_outside_the_supported_dates_is_one_error_line(self, tmp_path, capsys, ts):
        (tmp_path / "trace.jsonl").write_text(f'{{"ts":{ts},"gps":null,"conn":null,"aps":[]}}\n')
        assert run("mine-home", "--traces", tmp_path) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: timestamp {ts} falls outside the supported dates\n"


def _folded_profile(days, home, week):
    """The profile ``update_profile`` folds over ``days`` from ``home``, and
    how many days gave no map against the home of the day before."""
    profile = time_map.empty_profile(home, days[0].day_id)
    no_map = 0
    for i, day in enumerate(days):
        new_map = time_map.build_day_map(day, profile.home_bssid)
        no_map += new_map is None
        window = days[max(0, i - week + 1) : i + 1]
        profile = time_map.update_profile(profile, new_map, window, window_days=week)
    return profile, no_map


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

    def test_missing_profile_is_an_error(self, tmp_path, capsys):
        store = tmp_path / "empty"
        rc = run(
            "predict", "--store", store, "--device", "d4",
            "--bssid", "0e:0e:0e:0e:0e:0e", "--tdr", "50",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no profile for device 'd4' in store ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["{", "{}", '{"window": 5}'])
    def test_malformed_profile_is_an_error(self, tmp_path, capsys, text):
        (tmp_path / "d5.profile.json").write_text(text)
        rc = run(
            "predict", "--store", tmp_path, "--device", "d5",
            "--bssid", "0e:0e:0e:0e:0e:0e", "--tdr", "50",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: profile ") and "Traceback" not in err

    @pytest.mark.parametrize("device", ["", "../escaped", "a/b"])
    def test_device_id_must_be_a_plain_file_name(self, dataset_dir, tmp_path, capsys, device):
        store = tmp_path / "store"
        rc = run("build-profile", "--traces", dataset_dir, "--device", device, "--store", store)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid device id") and "Traceback" not in err
        rc = run(
            "predict", "--store", store, "--device", device,
            "--bssid", "0e:0e:0e:0e:0e:0e", "--tdr", "50",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid device id") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("week", [7, 9])
    def test_days_without_the_current_home_fold_in_as_no_map(self, relocated, tmp_path, week):
        data, days = relocated
        store = tmp_path / "store"
        argv = ("build-profile", "--traces", data, "--device", "moved", "--store", store)
        assert run(*argv, "--window-days", week) == 0
        profile, no_map = _folded_profile(days, home_mining.vote_home_ap(days[:week]).winner, week)
        assert no_map > 0
        assert profile.home_bssid == Bssid("02:00:00:1f:ff:01")
        assert time_map.load_profile(store, "moved") == profile

    @pytest.mark.parametrize("week", [7, 9])
    def test_a_first_week_without_night_scans_starts_at_the_first_voting_window(
        self, relocated, tmp_path, week
    ):
        data, days = relocated
        scans = [s for i, d in enumerate(days) for s in d.scans if i >= 8 or not _is_night(s.ts)]
        (tmp_path / "trace.jsonl").write_bytes(serialize_scan_records(scans))
        trimmed = _load_days(str(tmp_path))
        assert [home_mining.day_vote(d) for d in trimmed[:8]] == [None] * 8
        store = tmp_path / "store"
        argv = ("build-profile", "--traces", tmp_path, "--device", "d", "--store", store)
        assert run(*argv, "--window-days", week) == 0
        windows = (trimmed[i - week + 1 : i + 1] for i in range(week - 1, len(trimmed)))
        start = next(
            home_mining.vote_home_ap(w).winner
            for w in windows
            if any(home_mining.day_vote(d) for d in w)
        )
        assert start == home_mining.day_vote(trimmed[8])
        profile, _ = _folded_profile(trimmed, start, week)
        assert profile.home_bssid == Bssid("02:00:00:1f:ff:01")
        assert time_map.load_profile(store, "d") == profile

    @pytest.mark.parametrize("inside", [False, True], ids=["file", "under-file"])
    def test_store_that_is_not_a_directory_is_an_error(self, dataset_dir, tmp_path, capsys, inside):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a store\n")
        store = blocker / "sub" if inside else blocker
        expected = f"error: profile store {str(store)!r} is not a directory\n"
        assert run("build-profile", "--traces", dataset_dir, "--device", "d", "--store", store) == 1
        assert capsys.readouterr() == ("", expected)
        rc = run(
            "predict", "--store", store, "--device", "d",
            "--bssid", "0e:0e:0e:0e:0e:0e", "--tdr", "50",
        )
        assert rc == 1
        assert capsys.readouterr() == ("", expected)
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "not a store\n"

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

    def test_valid_day_without_a_trace_is_an_error(self, dataset_dir, capsys):
        assert run("detect-door", "--traces", dataset_dir, "--day", "1999-01-01") == 1
        assert capsys.readouterr().err == "error: no trace for day 1999-01-01\n"


def door_ts(capsys, *argv) -> list[int]:
    capsys.readouterr()
    assert run("detect-door", *argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ts"
    return [int(line) for line in lines[1:]]


def _is_night(ts: int) -> bool:
    sod = ts % DAY_S
    return sod >= home_mining.NIGHT_START_SOD or sod < home_mining.NIGHT_END_SOD


class TestDetectDoorAfterRelocation:
    NEW_HOME = "02:00:00:1f:ff:01"

    def test_each_day_uses_the_home_of_its_window(self, relocated, capsys):
        data, days = relocated
        moved = day_slice_start(days[10].day_id)
        voted = door_ts(capsys, "--traces", data)
        new_home = door_ts(capsys, "--traces", data, "--home", self.NEW_HOME)
        old_home = home_mining.vote_home_ap(days[:10]).winner
        before = [ts for ts in door_ts(capsys, "--traces", data, "--home", old_home) if ts < moved]
        assert [ts for ts in voted if ts < moved] == before and len(before) == 9
        # The windows of days 11-13 still hold 4 old-home nights of 7; from
        # day 14 on they vote the new home and find its doors, one a day.
        after = [ts for ts in voted if ts >= moved]
        assert after == [ts for ts in new_home if ts >= day_slice_start(days[13].day_id)]
        assert len(after) == 7

    @pytest.mark.parametrize("index", [0, 11, 14])
    def test_one_day_is_voted_over_the_days_read(self, relocated, index, capsys):
        data, days = relocated
        start = day_slice_start(days[index].day_id)
        every_day = door_ts(capsys, "--traces", data)
        one_day = door_ts(capsys, "--traces", data, "--day", days[index].day_id.isoformat())
        assert one_day == [ts for ts in every_day if start <= ts < start + 86_400]

    def test_a_day_whose_window_has_no_night_gets_no_home(self, relocated, tmp_path, capsys):
        data, days = relocated
        first_day = [s for s in days[0].scans if not _is_night(s.ts)]
        rest = [s for d in days[1:] for s in d.scans]
        (tmp_path / "trace.jsonl").write_bytes(serialize_scan_records(first_day + rest))
        (tmp_path / "accel.jsonl").write_bytes((data / "accel.jsonl").read_bytes())
        second = day_slice_start(days[1].day_id)
        expected = [ts for ts in door_ts(capsys, "--traces", data) if ts >= second]
        assert door_ts(capsys, "--traces", tmp_path) == expected

        (tmp_path / "trace.jsonl").write_bytes(serialize_scan_records(first_day))
        assert run("detect-door", "--traces", tmp_path) == 1
        assert "21:00-06:00" in capsys.readouterr().err


def _dataset_with_accel(src: Path, dst: Path, accel: bytes) -> Path:
    dst.mkdir()
    for name in ("trace.jsonl", "ground_truth.csv"):
        (dst / name).write_bytes((src / name).read_bytes())
    (dst / "accel.jsonl").write_bytes(accel)
    return dst


def _spoiled(accel: bytes, how: str) -> bytes:
    lines = accel.splitlines(keepends=True)
    if how == "malformed":
        lines[2] = b'{"ts":\n'
    elif how == "unsorted":
        lines.reverse()
    else:  # a non-finite magnitude, which the JSON reader takes as a float
        lines[2] = lines[2].split(b'"mag":')[0] + b'"mag":%s}\n' % how.encode()
    return b"".join(lines)


# every command that reads a trace directory but not its accel.jsonl
_ACCEL_BLIND = {
    "mine-home": lambda d, ts: ("mine-home", "--traces", d, "--out", d / "out" / "tally.csv"),
    "build-profile": lambda d, ts: ("build-profile", "--traces", d, "--device", "d", "--store", d / "out"),
    "evaluate": lambda d, ts: ("evaluate", "--traces", d, "--out", d / "out"),
    "sweep": lambda d, ts: ("sweep", "--traces", d, "--out", d / "out"),
    "predict-nn": lambda d, ts: ("predict", "--method", "nn", "--traces", d, "--ts", ts),
}


class TestOnlyDetectDoorReadsAccel:
    @pytest.mark.parametrize("how", ["malformed", "unsorted"])
    @pytest.mark.parametrize("command", sorted(_ACCEL_BLIND))
    def test_a_bad_accel_file_changes_nothing(self, dataset_dir, tmp_path, capsys, command, how):
        accel = (dataset_dir / "accel.jsonl").read_bytes()
        ts = _load_days(str(dataset_dir))[-1].scans[40].ts
        results = []
        for name, data in (("good", accel), ("bad", _spoiled(accel, how))):
            d = _dataset_with_accel(dataset_dir, tmp_path / name, data)
            capsys.readouterr()
            assert run(*_ACCEL_BLIND[command](d, ts)) == 0
            out, err = capsys.readouterr()
            results.append((out.replace(str(d), "<dir>"), err, read_tree(d / "out")))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "how, error",
        [
            ("malformed", "error: line 3: invalid JSON ("),
            ("unsorted", "error: accel samples not sorted"),
            ("NaN", "error: line 3: accelerometer magnitude must be finite\n"),
            ("Infinity", "error: line 3: accelerometer magnitude must be finite\n"),
        ],
    )
    def test_detect_door_refuses_a_bad_accel_file(self, dataset_dir, tmp_path, capsys, how, error):
        accel = _spoiled((dataset_dir / "accel.jsonl").read_bytes(), how)
        d = _dataset_with_accel(dataset_dir, tmp_path / "bad", accel)
        assert run("detect-door", "--traces", d, "--out", d / "door.csv") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error)
        assert not (d / "door.csv").exists()

    def test_a_day_with_accel_but_no_scans(self, relocated, tmp_path, capsys):
        """It is no day for any command: build-profile and detect-door read
        the same days as when its samples are dropped too.  With the old
        home renamed above the new one, a window that counted it would tie
        on day 14 (3 old-home nights, 3 new-home ones) and vote the new
        home, while the 7 read days hold 4 old-home nights."""
        data, days = relocated
        gone = days[10]
        kept = days[:10] + days[11:]
        scans = serialize_scan_records([s for d in kept for s in d.scans])
        scans = scans.replace(b"02:00:00:1f:ff:00", b"02:00:00:1f:ff:02")
        accel = (data / "accel.jsonl").read_bytes()
        start = day_slice_start(gone.day_id)
        kept_accel = [a for a in parse_accel_file(accel) if not start <= a.ts < start + DAY_S]
        assert len(kept_accel) < len(parse_accel_file(accel))
        accel_only = _dataset_with_accel(data, tmp_path / "accel_only", accel)
        dropped = _dataset_with_accel(data, tmp_path / "dropped", serialize_accel_samples(kept_accel))
        for d in (accel_only, dropped):
            (d / "trace.jsonl").write_bytes(scans)

        kept_ids = [d.day_id for d in kept]
        for d in (accel_only, dropped):
            for with_accel in (False, True):
                assert [x.day_id for x in _load_days(str(d), with_accel=with_accel)] == kept_ids

        profiles = []
        for d in (accel_only, dropped):
            assert run("build-profile", "--traces", d, "--device", "d", "--store", d / "store") == 0
            profiles.append((d / "store" / "d.profile.json").read_bytes())
        assert profiles[0] == profiles[1]

        day = gone.day_id.isoformat()
        for d in (accel_only, dropped):
            assert run("detect-door", "--traces", d, "--day", day) == 1
            assert capsys.readouterr().err == f"error: no trace for day {day}\n"
        assert door_ts(capsys, "--traces", accel_only) == door_ts(capsys, "--traces", dropped)


class TestFsmRun:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("fsm-run", "--scenario", "simple", "--seed", "3", "--out", a) == 0
        assert run("fsm-run", "--scenario", "simple", "--seed", "3", "--out", b) == 0
        assert (a / "stats.csv").read_text().splitlines()[0] == "wifi_scans,gps_reads,accel_samples,wakeups"
        assert read_tree(a) == read_tree(b)

    def test_day_index_outside_the_calendar_is_an_error(self, tmp_path, capsys):
        last = (date.max - date(2024, 1, 1)).days  # the simple preset starts 2024-01-01
        for day in (999999999, last + 1):
            assert run("fsm-run", "--scenario", "simple", "--day", day, "--out", tmp_path / "x") == 1
            assert capsys.readouterr().err == f"error: day index {day} falls outside the supported dates\n"
        assert not (tmp_path / "x").exists()

    def test_a_day_that_does_not_fit_its_slice_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "f.ini"
        path.write_text("[days]\ndepart = 07:55\n", encoding="utf-8")
        assert run("fsm-run", "--scenario", path, "--day", "1", "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == (
            f"error: malformed scenario file {str(path)!r}: "
            "day 2024-01-02: the evening commute runs into the morning departure\n"
        )
        assert not (tmp_path / "x").exists()

    def test_first_and_last_calendar_days_still_run(self, tmp_path):
        last = (date.max - date(2024, 1, 1)).days
        for day in (0, last):
            assert run("fsm-run", "--scenario", "simple", "--day", day, "--out", tmp_path / str(day)) == 0


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


# every command that reads --traces, with the other arguments it needs
TRACES_ARGVS = [
    ["mine-home"],
    ["build-profile", "--device", "d", "--store", "{tmp}"],
    ["detect-door"],
    ["evaluate", "--out", "{tmp}/out"],
    ["sweep", "--out", "{tmp}/out"],
    ["predict", "--method", "nn", "--ts", "5"],
]


class TestMissingInput:
    @pytest.mark.parametrize("argv", TRACES_ARGVS, ids=lambda argv: argv[0])
    def test_missing_trace_file_is_an_error(self, argv, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(*(a.format(tmp=tmp_path) for a in argv), "--traces", empty) == 1
        assert capsys.readouterr().err == f"error: no trace file {empty / 'trace.jsonl'}\n"

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize(
        "argv",
        TRACES_ARGVS + [["detect-door", "--home", "02:00:00:1f:ff:00"]],
        ids=lambda argv: argv[0] + ("-home" if "--home" in argv else ""),
    )
    def test_trace_without_scans_is_one_error(self, argv, text, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "trace.jsonl").write_text(text)
        assert run(*(a.format(tmp=tmp_path) for a in argv), "--traces", traces) == 1
        assert capsys.readouterr() == ("", f"error: no scans in {traces / 'trace.jsonl'}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_missing_ground_truth_is_an_error(self, command, dataset_dir, tmp_path, capsys):
        traces = tmp_path / "no_truth"
        traces.mkdir()
        (traces / "trace.jsonl").write_bytes((dataset_dir / "trace.jsonl").read_bytes())
        assert run(command, "--traces", traces, "--out", tmp_path / "out") == 1
        truth = traces / "ground_truth.csv"
        assert capsys.readouterr().err == f"error: no ground truth file {truth}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--ts", "5"], ["--traces", "t"], []], ids=["ts", "traces", "none"])
    def test_nn_prediction_needs_traces_and_ts(self, argv, capsys):
        assert run("predict", "--method", "nn", *argv) == 1
        assert capsys.readouterr().err == "error: nn prediction needs --traces and --ts\n"


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv, name, how",
        [
            pytest.param(["mine-home", "--traces", "{tmp}/data"], "data/trace.jsonl", "dir", id="mine-home-trace-dir"),
            pytest.param(["mine-home", "--traces", "{tmp}/data"], "data/trace.jsonl", "latin-1", id="mine-home-trace-latin-1"),
            pytest.param(
                ["evaluate", "--traces", "{tmp}/data", "--out", "{tmp}/out"], "data/ground_truth.csv", "dir",
                id="evaluate-truth-dir",
            ),
            pytest.param(
                ["evaluate", "--traces", "{tmp}/data", "--out", "{tmp}/out"], "data/ground_truth.csv", "latin-1",
                id="evaluate-truth-latin-1",
            ),
            pytest.param(["detect-door", "--traces", "{tmp}/data"], "data/accel.jsonl", "dir", id="detect-door-accel-dir"),
            pytest.param(
                ["build-profile", "--traces", "{tmp}/data", "--device", "d", "--store", "{tmp}/store"],
                "store/d.profile.json", "dir", id="build-profile-profile-dir",
            ),
            pytest.param(
                ["predict", "--store", "{tmp}/store", "--device", "d", "--bssid", "02:00:00:10:00:03", "--tdr", "1"],
                "store/d.profile.json", "dir", id="predict-profile-dir",
            ),
        ],
    )
    def test_unreadable_file_is_one_error_line(self, argv, name, how, dataset_dir, tmp_path, capsys):
        shutil.copytree(dataset_dir, tmp_path / "data")
        path = tmp_path / name
        path.unlink(missing_ok=True)
        if how == "dir":
            path.mkdir(parents=True)
        else:
            path.write_bytes("é\n".encode("latin-1"))
        assert run(*(a.format(tmp=tmp_path) for a in argv)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        if name.startswith("store/"):
            assert list(path.parent.iterdir()) == [path]  # no temporary file is left behind


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv, blocker",
        [
            pytest.param(["mine-home", "--traces", "{data}", "--out", "{tmp}/out"], "dir", id="mine-home-dir"),
            pytest.param(["detect-door", "--traces", "{data}", "--out", "{tmp}/out"], "dir", id="detect-door-dir"),
            pytest.param(["evaluate", "--traces", "{data}", "--out", "{tmp}/out"], "file", id="evaluate-file"),
            pytest.param(["sweep", "--traces", "{data}", "--out", "{tmp}/out"], "file", id="sweep-file"),
            pytest.param(
                ["simulate", "--scenario", "simple", "--days", "2", "--out", "{tmp}/out"], "file", id="simulate-file"
            ),
            pytest.param(["fsm-run", "--scenario", "simple", "--out", "{tmp}/out"], "file", id="fsm-run-file"),
        ],
    )
    def test_unwritable_output_is_one_error_line(self, argv, blocker, dataset_dir, tmp_path, capsys):
        out_path = tmp_path / "out"
        if blocker == "dir":
            (out_path / "kept").mkdir(parents=True)
        else:
            out_path.write_text("kept\n")
        assert run(*(a.format(data=dataset_dir, tmp=tmp_path) for a in argv)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write ") and str(out_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        if blocker == "dir":
            assert [p.name for p in out_path.iterdir()] == ["kept"]
        else:
            assert out_path.read_text() == "kept\n"

    @pytest.mark.parametrize("command, first", [("evaluate", "cdf_tls.csv"), ("sweep", "sweep.csv")])
    def test_a_file_out_is_refused_before_any_evaluation(
        self, command, first, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        def evaluate(*args, **kwargs):
            raise AssertionError("evaluated before --out was checked")

        monkeypatch.setattr(eval_harness, "evaluate", evaluate)
        out_path = tmp_path / "out"
        out_path.write_text("kept\n")
        assert run(command, "--traces", dataset_dir, "--out", out_path) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {out_path / first} ({out_path}: File exists)\n"
        # an --out under the file fails at its parent, which cannot be made
        under = out_path / "sub"
        assert run(command, "--traces", dataset_dir, "--out", under) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {under / first} ({under}: Not a directory)\n"
        assert out_path.read_text() == "kept\n"


class TestMalformedGroundTruth:
    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize(
        "row",
        [
            "2024-01-01,5",
            "2024-13-01,5,10,walk:1.0000",
            "2024-01-01,5.5,10,walk:1.0000",
            "2024-01-01,5,10,walk",
            "2024-01-01,5,10,walk:fast",
        ],
        ids=["two-columns", "bad-date", "float-arrival", "mode-without-colon", "bad-factor"],
    )
    def test_malformed_row_names_file_and_line(self, row, command, dataset_dir, tmp_path, capsys):
        traces = tmp_path / "bad_truth"
        traces.mkdir()
        (traces / "trace.jsonl").write_bytes((dataset_dir / "trace.jsonl").read_bytes())
        lines = (dataset_dir / "ground_truth.csv").read_text().splitlines()
        lines[3] = row
        truth = traces / "ground_truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        assert run(command, "--traces", traces, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth} line 4: malformed ground truth (")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("header", [None, "day,arrival,door,mode", ""], ids=["missing", "renamed", "blank"])
    def test_header_line_is_required(self, header, command, dataset_dir, tmp_path, capsys):
        # without the check the first row was skipped as if it were the header
        traces = tmp_path / "no_header"
        traces.mkdir()
        (traces / "trace.jsonl").write_bytes((dataset_dir / "trace.jsonl").read_bytes())
        lines = (dataset_dir / "ground_truth.csv").read_text().splitlines()
        lines[0:1] = [] if header is None else [header]
        truth = traces / "ground_truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        assert run(command, "--traces", traces, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: {truth} line 1: the header must be 'day_id,arrival_ts,door_ts,mode'\n"
        assert not (tmp_path / "out").exists()


# Each subcommand that writes to stdout, as argv built from the 10-day
# dataset and a scratch directory.
STDOUT_COMMANDS = {
    "simulate": lambda ds, tmp: ("simulate", "--scenario", "simple", "--days", "2", "--out", tmp / "sim"),
    "mine-home": lambda ds, tmp: ("mine-home", "--traces", ds),
    "build-profile": lambda ds, tmp: ("build-profile", "--traces", ds, "--device", "d", "--store", tmp),
    "predict": lambda ds, tmp: (
        "predict", "--method", "nn", "--traces", ds, "--ts", _load_days(str(ds))[-1].scans[40].ts
    ),
    "detect-door": lambda ds, tmp: ("detect-door", "--traces", ds),
    "fsm-run": lambda ds, tmp: ("fsm-run", "--scenario", "simple", "--out", tmp / "fsm"),
    "evaluate": lambda ds, tmp: ("evaluate", "--traces", ds, "--out", tmp / "eval"),
    "sweep": lambda ds, tmp: ("sweep", "--traces", ds, "--out", tmp / "sweep"),
}


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", sorted(STDOUT_COMMANDS))
    def test_a_closed_pipe_exits_one_with_nothing_on_stderr(
        self, command, unbuffered, dataset_dir, tmp_path
    ):
        """A reader that is gone before the command writes (``| head`` that
        has exited) ends it with exit 1 and no traceback, whether stdout
        fails on the write or on the final flush."""
        argv = [str(a) for a in STDOUT_COMMANDS[command](dataset_dir, tmp_path)]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "timeloc", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


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

    def test_predict_help_has_no_window_days(self, capsys):
        # nn prediction reads the WINDOW_DAYS window, as evaluate does
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--help"])
        assert exc.value.code == 0
        assert "--window-days" not in capsys.readouterr().out

    def test_predict_help_marks_threshold_nn_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "RSSI filter level (nn) (default: -70)" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--traces", "t", "--out", "o", "--threshold", "abc"],
            ["sweep", "--traces", "t", "--out", "o", "--levels", "all,x"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "-1"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "0"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "6"],
            ["build-profile", "--traces", "t", "--device", "d", "--window-days", "x"],
            ["detect-door", "--traces", "t", "--day", "notadate"],
            ["predict", "--bssid", "02:00:00:00:00:01", "--tdr", "-5"],
            ["detect-door", "--traces", "t", "--home", "nope"],
            ["predict", "--tdr", "5", "--bssid", "nope"],
            ["evaluate", "--traces", "t", "--out", "o", "--threshold", "5"],
            ["evaluate", "--traces", "t", "--out", "o", "--threshold", "-121"],
            ["sweep", "--traces", "t", "--out", "o", "--levels", "all,1"],
            ["predict", "--method", "nn", "--traces", "t", "--ts", "1", "--threshold", "-200"],
            ["simulate", "--scenario", "simple", "--out", "o", "--days", "0"],
            ["simulate", "--scenario", "simple", "--out", "o", "--days", "-3"],
            ["fsm-run", "--scenario", "simple", "--out", "o", "--day", "-1"],
            ["fsm-run", "--scenario", "simple", "--out", "o", "--day", "x"],
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
