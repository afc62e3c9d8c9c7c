"""Golden outputs of the commands the benchmark digests do not cover.

The benchmark hashes the cli-pipeline stages (simulate, mine-home's vote,
build-profile, evaluate, sweep) and the phone-replay library calls.  This
pins the stdout and the written files of detect-door (with and without
--home), fsm-run, mine-home and predict (tls and nn) on a 20-day
``relocation`` dataset (seed 5, the user moves before the night of day
11), so a refactor that promises byte-identical outputs is held to it for
these commands too.  A change that means to move an output re-records its
hash here and says so.
"""

import hashlib

import pytest

from timeloc.cli import main
from timeloc.trace_model import load_trace_file

NEW_HOME = "02:00:00:1f:ff:01"
ROUTE_AP = "02:00:00:10:00:03"


def _commands(data, store, out, nn_ts):
    return {
        "mine-home": ("mine-home", "--traces", data, "--out", out / "tally.csv"),
        "detect-door": ("detect-door", "--traces", data, "--out", out / "door.csv"),
        "detect-door-home": ("detect-door", "--traces", data, "--home", NEW_HOME, "--out", out / "door.csv"),
        "fsm-run": ("fsm-run", "--scenario", "relocation", "--seed", "5", "--day", "12", "--out", out),
        "predict-tls": ("predict", "--store", store, "--device", "d", "--bssid", ROUTE_AP, "--tdr", "100"),
        "predict-nn": ("predict", "--method", "nn", "--traces", data, "--ts", nn_ts),
    }


GOLDEN = {
    "mine-home": {
        "stdout": "7e711a2734acc0253d8f8dad99ac98248e6ae91f96fd6d46b1331472435b3ae1",
        "tally.csv": "7e711a2734acc0253d8f8dad99ac98248e6ae91f96fd6d46b1331472435b3ae1",
    },
    "detect-door": {
        "stdout": "73288a0f45c4655ab859844109f1e06a4aa745dab45c352c3d2a18d3ba73fee5",
        "door.csv": "73288a0f45c4655ab859844109f1e06a4aa745dab45c352c3d2a18d3ba73fee5",
    },
    "detect-door-home": {
        "stdout": "f73b91b612ce21a8119763077b8214c880fb4d84d8bf4544db66be2c5ba70b8d",
        "door.csv": "f73b91b612ce21a8119763077b8214c880fb4d84d8bf4544db66be2c5ba70b8d",
    },
    "fsm-run": {
        "stdout": "c7d941c81b79df998a70539b621e77909f7bd7629aec9746cdd009d997bb15d9",
        "sensed.jsonl": "45fc9d26574d8c4f27fa8abccc88153a0d99179c7a7bec336ff55fe02103dc12",
        "sensed_accel.jsonl": "4d6936662e21abeffc7426035784b65a0a84d8519d51773c8212913d869a1a97",
        "stats.csv": "5be403887e9519e77daa6a7939e51db039e67fa3340d6d41798d11f3c28a551e",
    },
    "predict-tls": {
        "stdout": "8ca988077bfd1b10084ebc52b23a29d9b02a502980e7e98a5393e154d1f6a495",
    },
    "predict-nn": {
        "stdout": "45f3a38ebc1b858032e039b6924b125e428921619c2eb21ed89c9fe5706d8916",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def relocation(tmp_path_factory):
    data = tmp_path_factory.mktemp("relocation")
    argv = ("simulate", "--scenario", "relocation", "--days", "20", "--seed", "5", "--out", data)
    assert main([str(a) for a in argv]) == 0
    store = tmp_path_factory.mktemp("store")
    assert main(["build-profile", "--traces", str(data), "--device", "d", "--store", str(store)]) == 0
    nn_ts = load_trace_file(data / "trace.jsonl")[-200].ts
    return data, store, nn_ts


def outputs(relocation, out, capsys, name) -> dict:
    data, store, nn_ts = relocation
    capsys.readouterr()
    assert main([str(a) for a in _commands(data, store, out, nn_ts)[name]]) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    got = {"stdout": _sha(stdout.encode())}
    got.update((p.name, _sha(p.read_bytes())) for p in sorted(out.iterdir()))
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_hashes(relocation, tmp_path, capsys, name):
    assert outputs(relocation, tmp_path, capsys, name) == GOLDEN[name]
