"""The evaluation harness's per-day artifact store against a from-scratch run.

``reference_evaluate`` restates the protocol with the public per-module
functions only: filter every day, then for each evaluated day vote over the
window traces, rebuild that window's maps or history, and query.  The
cached ``evaluate`` must match it exactly.
"""

from datetime import date

import pytest

from timeloc import home_mining, simulator as sim, time_map
from timeloc.errors import ColdStart, NoArrival, NoHistory, NoNightData, UnknownBssid
from timeloc.eval_harness import (
    COLD_START_DAYS,
    ErrorSample,
    EvalDataset,
    _build_report,
    ap_loss_queries,
    evaluate,
    sweep_rssi_filter,
)
from timeloc.home_mining import vote_home_ap
from timeloc.nn_baseline import build_history, filter_env, nn_predict, query_seed
from timeloc.time_map import UserProfile, build_day_map, predict_tl
from timeloc.trace_model import filter_trace


def reference_evaluate(method, traces, truths, level, seed=0):
    traces = sorted(traces, key=lambda t: t.day_id)
    filtered = [filter_trace(t, level) for t in traces]
    first_day = filtered[0].day_id
    samples, probes = [], []
    for trace in filtered:
        if (trace.day_id - first_day).days < COLD_START_DAYS:
            continue
        window = [t for t in filtered if 0 < (trace.day_id - t.day_id).days <= COLD_START_DAYS]
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
            maps = tuple(maps[-COLD_START_DAYS:])
            profile = UserProfile(home, maps, {}, maps[-1].day_id if maps else date.min)
        else:
            history = build_history(window, home, level)
        for q in ap_loss_queries(trace, home, truth.arrival_ts):
            try:
                if method == "tls":
                    p = predict_tl(profile, q.bssid, q.observed_tdr_s)
                    answer = (p.tl_seconds, p.lookups)
                else:
                    qseed = query_seed(seed, q.day_id, q.query_ts, q.bssid)
                    p, n = nn_predict(history, filter_env(q.scan, level), seed=qseed)
                    answer = (p.tl_seconds, n)
            except (ColdStart, UnknownBssid, NoHistory):
                continue
            samples.append(ErrorSample(q.day_id, q.query_ts, answer[0] - q.actual_tl_s, method))
            probes.append(answer[1])
    samples.sort(key=lambda s: (s.day_id, s.query_ts))
    return _build_report(method, samples, probes)


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
    assert evaluate(method, dataset, rssi_threshold_dbm=level, seed=3) == expected
    assert evaluate(method, dataset, rssi_threshold_dbm=level, seed=3) == expected


def test_method_order_does_not_matter(mixture):
    a, b = fresh(mixture), fresh(mixture)
    tls_first = [evaluate("tls", a), evaluate("nn", a)]
    nn_first = [evaluate("nn", b), evaluate("tls", b)]
    assert tls_first == nn_first[::-1]


def test_sweep_equals_separate_evaluations(mixture):
    rows = sweep_rssi_filter(fresh(mixture), [None, -70], seed=2)
    separate = [
        ("all" if level is None else str(level), evaluate(m, fresh(mixture), rssi_threshold_dbm=level, seed=2))
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


def test_custom_query_policy_is_honoured(mixture):
    dataset = fresh(mixture)

    class Perfect:
        name = "perfect"

        def start_day(self, window, home, threshold):
            pass

        def predict(self, q):
            return q.actual_tl_s, 1

    def first_only(trace, home, arrival_ts):
        return ap_loss_queries(trace, home, arrival_ts)[:1]

    full = evaluate(Perfect(), dataset)
    one_per_day = evaluate(Perfect(), dataset, first_only)
    assert 0 < one_per_day.n < full.n
    assert one_per_day.n <= len(dataset.traces) - COLD_START_DAYS
    # the cached default-policy queries are untouched by the custom run
    assert evaluate(Perfect(), dataset) == full


def test_custom_predictor_gets_filtered_window_traces(mixture):
    dataset = fresh(mixture)
    seen = []

    class Recorder:
        name = "recorder"

        def start_day(self, window, home, threshold):
            seen.append((tuple(t.day_id for t in window), home, threshold))
            assert all(o.rssi_dbm >= -70 for t in window for s in t.scans for o in s.aps)

        def predict(self, q):
            return q.actual_tl_s, 1

    report = evaluate(Recorder(), dataset)
    assert report.method == "recorder" and report.n > 0
    first = dataset.traces[0].day_id
    for days, home, threshold in seen:
        assert threshold == -70
        assert len(days) == COLD_START_DAYS
        assert (days[-1] - first).days >= COLD_START_DAYS - 1
