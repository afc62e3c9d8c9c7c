import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloc import simulator as sim
from timeloc.errors import InsufficientHistory
from timeloc.eval_harness import (
    EvalDataset,
    _build_report,
    ap_loss_queries,
    cdf,
    evaluate,
    report_csv,
    sweep_rssi_filter,
)


@pytest.fixture(scope="module")
def small_dataset():
    scenario = sim.simple_walk_scenario(n_days=10)
    traces, truths = sim.synth_dataset(scenario, seed=41)
    return EvalDataset.from_lists(traces, truths)


class PerfectPredictor:
    name = "perfect"

    def start_day(self, window, home):
        pass

    def predict(self, q):
        return q.actual_tl_s, 1


class BiasedPredictor:
    name = "biased"

    def __init__(self, bias):
        self.bias = bias

    def start_day(self, window, home):
        pass

    def predict(self, q):
        return q.actual_tl_s + self.bias, 1


class TestCdf:
    def test_singleton(self):
        assert cdf([10]) == [(10, 1.0)]

    def test_counting(self):
        assert cdf([10, 10, 20]) == [(10, pytest.approx(2 / 3)), (20, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf([])

    def test_nondecreasing_and_ends_at_one(self):
        rng = random.Random(8)
        samples = [rng.randint(0, 50) for _ in range(500)]
        points = cdf(samples)
        fracs = [f for _, f in points]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_uniform_samples_stay_inside_dkw_band(self):
        rng = random.Random(123)
        n = 1000
        samples = [rng.uniform(0, 100) for _ in range(n)]
        # Dvoretzky-Kiefer-Wolfowitz: sup |F_n - F| <= sqrt(ln(2/a)/(2n)) w.p. 1-a
        eps = math.sqrt(math.log(2 / 0.01) / (2 * n))
        for value, frac in cdf(samples):
            assert abs(frac - value / 100.0) <= eps


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30) | st.floats(0, 30, allow_nan=False), min_size=1, max_size=60))
def test_cdf_steps_at_each_distinct_value(samples):
    """Strictly increasing values, one step at each distinct sample, each
    fraction the share of samples at or below its value, ending at 1.0."""
    points = cdf(samples)
    values = [v for v, _ in points]
    assert values == sorted(set(samples))
    assert all(a < b for a, b in zip(values, values[1:]))
    n = len(samples)
    for value, frac in points:
        assert frac == sum(1 for x in samples if x <= value) / n
    assert points[-1][1] == 1.0


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self, small_dataset):
        report = evaluate(PerfectPredictor(), small_dataset)
        assert report.n > 0
        assert report.median_abs_s == 0.0
        assert report.max_abs_s == 0
        assert report.cdf == ((0, 1.0),)

    def test_constant_bias_shows_up_unsigned_and_signed(self, small_dataset):
        report = evaluate(BiasedPredictor(50), small_dataset)
        assert report.median_abs_s == 50.0
        assert report.early_fraction == 0.0
        early = evaluate(BiasedPredictor(-50), small_dataset)
        assert early.early_fraction == 1.0

    def test_short_dataset_rejected(self):
        scenario = sim.simple_walk_scenario(n_days=7)
        traces, truths = sim.synth_dataset(scenario, seed=1)
        with pytest.raises(InsufficientHistory):
            evaluate("tls", EvalDataset.from_lists(traces, truths))

    def test_no_queries_during_cold_start_week(self, small_dataset):
        first = small_dataset.traces[0].day_id
        seen_days = set()

        class Recorder(PerfectPredictor):
            def predict(self, q):
                seen_days.add(q.day_id)
                return q.actual_tl_s, 1

        evaluate(Recorder(), small_dataset)
        assert seen_days
        assert all((d - first).days >= 7 for d in seen_days)

    def test_every_query_precedes_arrival(self, small_dataset):
        class Checker(PerfectPredictor):
            def predict(self, q):
                assert q.actual_tl_s > 0
                return q.actual_tl_s, 1

        report = evaluate(Checker(), small_dataset)
        assert report.n > 0

    def test_day_order_of_input_is_irrelevant(self):
        scenario = sim.simple_walk_scenario(n_days=10)
        traces, truths = sim.synth_dataset(scenario, seed=14)
        a = evaluate("tls", EvalDataset.from_lists(traces, truths))
        rng = random.Random(0)
        shuffled = traces[:]
        rng.shuffle(shuffled)
        b = evaluate("tls", EvalDataset.from_lists(shuffled, truths))
        assert a == b

    def test_probe_costs_are_constant_vs_linear(self, small_dataset):
        tls = evaluate("tls", small_dataset)
        nn = evaluate("nn", small_dataset)
        assert tls.probe_cost == 2.0
        assert nn.probe_cost > 100  # scales with the whole history

    def test_nn_is_deterministic_given_seed(self, small_dataset):
        a = evaluate("nn", small_dataset, seed=5)
        b = evaluate("nn", small_dataset, seed=5)
        assert a == b


class TestQueries:
    def test_loss_instants_carry_consistent_fields(self):
        scenario = sim.simple_walk_scenario(n_days=8)
        traces, truths = sim.synth_dataset(scenario, seed=3)
        home = scenario.route.home_bssid
        truth = truths[-1]
        queries = ap_loss_queries(traces[-1], home, truth.arrival_ts)
        assert queries
        for q in queries:
            assert q.bssid != home
            assert q.query_ts < truth.arrival_ts
            assert q.observed_tdr_s >= 0
            assert q.scan.ts == q.query_ts
            assert q.actual_tl_s == truth.arrival_ts - q.query_ts


class TestSweep:
    def test_needs_two_levels(self, small_dataset):
        with pytest.raises(ValueError):
            sweep_rssi_filter(small_dataset, [-70])

    def test_all_level_costs_more_for_nn(self, small_dataset):
        rows = sweep_rssi_filter(small_dataset, [None, -70])
        probe = {(label, r.method): r.probe_cost for label, r in rows}
        assert probe[("all", "nn")] > probe[("-70", "nn")]
        assert probe[("all", "tls")] == probe[("-70", "tls")] == 2.0

    def test_report_csv_shape(self, small_dataset):
        rows = sweep_rssi_filter(small_dataset, [None, -70])
        text = report_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("method,level,")
        assert len(lines) == 1 + len(rows)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5000, 5000), st.integers(0, 1000)), max_size=40),
    st.data(),
)
def test_report_ignores_the_order_of_its_samples(pairs, data):
    # evaluate collects (signed error, probe cost) pairs in day and query
    # order and never sorts them; no statistic of the report may depend on it.
    shuffled = data.draw(st.permutations(pairs))

    def report(ps):
        return _build_report("m", [e for e, _ in ps], [p for _, p in ps])

    assert report(shuffled) == report(pairs)
