"""The evaluation harness's per-day artifact store against a from-scratch run.

``reference_evaluate`` restates the protocol with the public per-module
functions only: filter every day, then for each evaluated day vote over the
window traces, rebuild that window's maps or history, and query.  The
cached ``evaluate`` must match it exactly.
"""

from dataclasses import replace
from datetime import date

import pytest

from timeloc import home_mining, simulator as sim, time_map
from timeloc.errors import ColdStart, NoArrival, NoHistory, NoNightData, UnknownBssid
from timeloc.eval_harness import (
    EvalDataset,
    EvalDay,
    NnPredictor,
    TlsPredictor,
    _build_report,
    ap_loss_queries,
    evaluate,
    sweep_rssi_filter,
)
from timeloc.home_mining import vote_home_ap
from timeloc.nn_baseline import build_history, filter_env, nn_predict, query_seed
from timeloc.time_map import WINDOW_DAYS, UserProfile, build_day_map, predict_tl
from timeloc.trace_model import filter_trace


def reference_evaluate(method, traces, truths, level, seed=0):
    traces = sorted(traces, key=lambda t: t.day_id)
    filtered = [filter_trace(t, level) for t in traces]
    first_day = filtered[0].day_id
    errors, probes = [], []
    for trace in filtered:
        if (trace.day_id - first_day).days < WINDOW_DAYS:
            continue
        window = [t for t in filtered if 0 < (trace.day_id - t.day_id).days <= WINDOW_DAYS]
        try:
            home = vote_home_ap(window).winner
        except NoNightData:
            continue
        truth = truths.get(trace.day_id)
        if truth is None:
            continue
        if method == "tls":
            maps = []
            for t in window:
                try:
                    maps.append(build_day_map(t, home))
                except NoArrival:
                    pass
            maps = tuple(maps[-WINDOW_DAYS:])
            profile = UserProfile(home, maps, {}, maps[-1].day_id if maps else date.min)
        else:
            history = build_history(window, home)
        for q in ap_loss_queries(trace, home, truth.arrival_ts):
            try:
                if method == "tls":
                    p = predict_tl(profile, q.bssid, q.observed_tdr_s)
                    answer = (p.tl_seconds, p.lookups)
                else:
                    qseed = query_seed(seed, q.day_id, q.query_ts, q.bssid)
                    answer = nn_predict(history, filter_env(q.scan), seed=qseed)
            except (ColdStart, UnknownBssid, NoHistory):
                continue
            errors.append(answer[0] - q.actual_tl_s)
            probes.append(answer[1])
    return _build_report(method, errors, probes)


@pytest.fixture(scope="module")
def mixture():
    return sim.synth_dataset(sim.mixture_scenario(n_days=11), seed=23)


@pytest.fixture(scope="module")
def relocation():
    """The home AP changes mid-dataset, so windows vote for two homes."""
    return sim.synth_dataset(sim.relocation_scenario(move_day=8, n_days=14), seed=4)


def fresh(data):
    traces, truths = data
    return EvalDataset.from_lists(traces, truths)


@pytest.mark.parametrize("level", [None, -70])
@pytest.mark.parametrize("method", ["tls", "nn"])
@pytest.mark.parametrize("name", ["mixture", "relocation"])
def test_cached_evaluate_matches_reference(request, name, method, level):
    data = request.getfixturevalue(name)
    traces, truths = data
    dataset = fresh(data)
    expected = reference_evaluate(method, traces, {g.day_id: g for g in truths}, level, seed=3)
    assert expected.n > 0
    # once on an empty store, once with every artifact already cached
    assert evaluate(method, dataset, level_dbm=level, seed=3) == expected
    assert evaluate(method, dataset, level_dbm=level, seed=3) == expected


def test_method_order_does_not_matter(mixture):
    a, b = fresh(mixture), fresh(mixture)
    tls_first = [evaluate("tls", a), evaluate("nn", a)]
    nn_first = [evaluate("nn", b), evaluate("tls", b)]
    assert tls_first == nn_first[::-1]


def test_sweep_equals_separate_evaluations(mixture):
    rows = sweep_rssi_filter(fresh(mixture), [None, -70], seed=2)
    separate = [
        ("all" if level is None else str(level), evaluate(m, fresh(mixture), level_dbm=level, seed=2))
        for level in (None, -70)
        for m in ("tls", "nn")
    ]
    assert rows == separate


def test_each_day_is_computed_once(mixture, monkeypatch):
    calls = {"dwell": 0, "day_map": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(home_mining, "nightly_dwell", "dwell")
    counting(time_map, "build_day_map", "day_map")
    dataset = fresh(mixture)
    evaluate("tls", dataset)
    evaluate("nn", dataset)
    n_days = len(dataset.traces)
    # one vote per day; one map per (day, home), and home is stable here
    assert calls["dwell"] <= n_days
    assert 0 < calls["day_map"] <= n_days
    before = dict(calls)
    evaluate("tls", dataset)
    assert calls == before


def test_custom_predictor_gets_filtered_window_traces(mixture):
    dataset = fresh(mixture)
    seen = []

    class Recorder:
        name = "recorder"

        def start_day(self, window, home):
            seen.append((tuple(d.day_id for d in window), home))
            assert all(o.rssi_dbm >= -70 for d in window for s in d.trace.scans for o in s.aps)

        def predict(self, q):
            return q.actual_tl_s, 1

    report = evaluate(Recorder(), dataset)
    assert report.method == "recorder" and report.n > 0
    first = dataset.traces[0].day_id
    for days, home in seen:
        assert len(days) == WINDOW_DAYS
        assert (days[-1] - first).days >= WINDOW_DAYS - 1


def test_custom_predictor_shares_the_day_records(mixture, monkeypatch):
    """A predictor from outside the package gets the same EvalDay records as
    the built-ins, so its day maps come from the store that "tls" filled."""

    class WindowMaps:
        name = "window-maps"

        def start_day(self, days, home):
            assert all(isinstance(d, EvalDay) for d in days)
            maps = [m for m in (d.day_map(home) for d in days) if m is not None]
            self.profile = time_map.build_profile_from_maps(home, maps)

        def predict(self, q):
            try:
                p = predict_tl(self.profile, q.bssid, q.observed_tdr_s)
            except (ColdStart, UnknownBssid):
                return None
            return p.tl_seconds, p.lookups

    dataset = fresh(mixture)
    expected = evaluate("tls", dataset)
    built = []
    monkeypatch.setattr(time_map, "build_day_map", lambda *a: built.append(a))
    assert evaluate(WindowMaps(), dataset) == replace(expected, method="window-maps")
    assert built == []


@pytest.mark.parametrize("level", [None, -70])
def test_builtin_predictor_instances_match_their_names(mixture, level):
    tls, nn = TlsPredictor(), NnPredictor(seed=3)
    for _ in range(2):  # an instance can be reused across evaluations
        assert evaluate(tls, fresh(mixture), level_dbm=level) == evaluate(
            "tls", fresh(mixture), level_dbm=level
        )
        assert evaluate(nn, fresh(mixture), level_dbm=level) == evaluate(
            "nn", fresh(mixture), level_dbm=level, seed=3
        )


@pytest.mark.parametrize("level", [None, -70])
@pytest.mark.parametrize("name", ["mixture", "relocation"])
def test_query_tdr_equals_day_map_tdr(request, name, level):
    traces, truths = request.getfixturevalue(name)
    arrivals = {g.day_id: g.arrival_ts for g in truths}
    points = 0
    for trace in traces:
        trace = filter_trace(trace, level)
        home = home_mining.day_vote(trace)
        if home is None:
            continue
        for q in ap_loss_queries(trace, home, arrivals[trace.day_id]):
            assert build_day_map(trace, home).entries[q.bssid].tdr_seconds == q.observed_tdr_s
            points += 1
    assert points > 0
