"""Golden outputs of the commands the benchmark digests do not cover.

The benchmark hashes the cli-pipeline stages (simulate, mine-home's vote,
build-profile, evaluate, sweep) and the phone-replay library calls.  This
pins the stdout and the written files of detect-door (with and without
--home), fsm-run, mine-home and predict (tls and nn) on a 20-day
``relocation`` dataset (seed 5, the user moves before the night of day
11), fsm-run on a ``mining`` day, and the files simulate writes for that
relocation dataset and for the first mining-fleet dataset (seed 1000), so
a refactor that promises byte-identical outputs is held to it for these
commands too.  It also pins the day that the tests render through
``commute_day``.  A change that means to move an output re-records its
hash here and says so.
"""

import hashlib

import pytest

from timeloc import simulator as sim
from timeloc.cli import _ground_truth_csv, main
from timeloc.trace_model import load_trace_file, serialize_accel_samples, serialize_scan_records
from util import commute_day

NEW_HOME = "02:00:00:1f:ff:01"
ROUTE_AP = "02:00:00:10:00:03"


def _commands(data, store, out, nn_ts):
    return {
        "mine-home": ("mine-home", "--traces", data, "--out", out / "tally.csv"),
        "detect-door": ("detect-door", "--traces", data, "--out", out / "door.csv"),
        "detect-door-home": ("detect-door", "--traces", data, "--home", NEW_HOME, "--out", out / "door.csv"),
        "fsm-run": ("fsm-run", "--scenario", "relocation", "--seed", "5", "--day", "12", "--out", out),
        "fsm-run-mining": ("fsm-run", "--scenario", "mining", "--seed", "1000", "--day", "3", "--out", out),
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
    "fsm-run-mining": {
        "stdout": "d3c54a19a77f423e572cedd05d706d9595c5180d93cdb92b188b7ba932640dd9",
        "sensed.jsonl": "d7f39b6667cc0ea1109e2ffd2860e65eacdd8dd1ac22f923e1fe09f9245d852b",
        "sensed_accel.jsonl": "4840ce64e476d0e75bab15443fae16aa6fa873701d900fe04e967f3a72507b40",
        "stats.csv": "0257f6d59978f75f83eb1413d77e5ef6a6e0dc8374cfc40192af700037667ef1",
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


# The rendered datasets themselves: the benchmark hashes only mining's
# winning BSSIDs, so these hold every byte the simulator writes.
SIMULATE_GOLDEN = {
    ("mining", "14", "1000"): {
        "accel.jsonl": "a5573765d6a8fa4e35da68d4a90bb7a86be54c2b2fc438b78e526a2ed26ff3b5",
        "ground_truth.csv": "80ff4d5241698ec8e7e6c400b5a550d298226746e91d466618de6b1cc951668b",
        "trace.jsonl": "2ceac63cd011c8c6dd61f344edbd8f52ae0c4d4d3e514749b4e010945714ea3e",
    },
    ("relocation", "20", "5"): {
        "accel.jsonl": "0989e9c9fef8db205d6db1c7655734b7606e20396f55655b33db98f88ce60779",
        "ground_truth.csv": "13314af6e83e42e573b9689c3ac0bd677f4a978e15292abd9e050ad469ff7993",
        "trace.jsonl": "e1ec54bc5620184b60938e3099026bead5f08b4ef69b69a5ae521ae3bc152664",
    },
    ("simple", "10", "3"): {
        "accel.jsonl": "590a4d22dc4e0ea863dd0f987db9618117ab769669c5c88ed419c33e3eb72e5d",
        "ground_truth.csv": "80e7ccf7ce76a8c137052c064948cbd39e9552264cabf820fdf2c6c9addbf9b2",
        "trace.jsonl": "58446bb3108efed453710df80010c0eab6cc3839b601c499aaff0090b9d8baef",
    },
    ("mixture", "10", "3"): {
        "accel.jsonl": "dd6c7bbe97f8394e1b764925f656de7412196f158a4cc9b9f7802812c3702142",
        "ground_truth.csv": "ad852cfb06281cd11e6c2e96d9cea1ec3a0ffff8f5aaa2313dd70252555d5245",
        "trace.jsonl": "81172919033ea0cd243e697201c47ead7645a9e3252481f14649382d5caf2658",
    },
    # door is the simple preset under another name, so it is pinned on
    # another seed and length.
    ("door", "12", "7"): {
        "accel.jsonl": "9a6ecb5d8daa705c2f19e20979506f8740400a019cd18a0fee20059dcc2cbfec",
        "ground_truth.csv": "8276b5c45e9d5e34162218850f869d41b78143752c091abf08a9695bd10b2e94",
        "trace.jsonl": "9660141c91eae5a19f8f81a75e78d7429990f313cf1fe16c715b64eb248257dd",
    },
}


@pytest.mark.parametrize("scenario,days,seed", sorted(SIMULATE_GOLDEN))
def test_simulate_hashes(tmp_path, scenario, days, seed):
    assert main(["simulate", "--scenario", scenario, "--days", days, "--seed", seed, "--out", str(tmp_path)]) == 0
    got = {p.name: _sha(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    assert got == SIMULATE_GOLDEN[scenario, days, seed]


# Recorded from the library's former standalone day renderer, which built
# this plan by hand; ``commute_day`` plans it through ``make_day_plan``.
COMMUTE_DAY_GOLDEN = "e369b84611f8e95976f5165afb8a354c33fbd0bb09e1df2943b1d0fcc5a1224f"


def test_commute_day_hash():
    trace, truth = commute_day(sim.make_chain_route(), sim.WALK, sim.NoiseParams(4.0, 0.03), seed=3)
    data = serialize_scan_records(trace.scans) + serialize_accel_samples(trace.accel)
    assert _sha(data + _ground_truth_csv([truth]).encode()) == COMMUTE_DAY_GOLDEN
