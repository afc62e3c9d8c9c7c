import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timeloc.errors import NoHistory
from timeloc.nn_baseline import (
    Fingerprint,
    HistoryPoint,
    build_history,
    day_history,
    env_similarity,
    filter_env,
    nn_predict,
)
from util import B, SLICE, bss, scan


def fp(*bssids, ts=0):
    return Fingerprint(bssids=frozenset(bssids), ts=ts)


class TestFilterEnv:
    def test_threshold_boundary_is_inclusive(self):
        s = scan(SLICE, {B("aa:00:00:00:00:01"): -60, B("aa:00:00:00:00:02"): -75, B("aa:00:00:00:00:03"): -70})
        kept = filter_env(s, -70).bssids
        assert kept == {B("aa:00:00:00:00:01"), B("aa:00:00:00:00:03")}

    def test_low_threshold_keeps_all(self):
        s = scan(SLICE, {bss(1): -119, bss(2): -45})
        assert filter_env(s, -120).bssids == {bss(1), bss(2)}
        assert filter_env(s, None).bssids == {bss(1), bss(2)}

    def test_total_rejection_yields_empty(self):
        s = scan(SLICE, {bss(1): -90, bss(2): -85})
        assert filter_env(s, -70).bssids == frozenset()

    def test_raising_threshold_never_grows_fingerprint(self):
        rng = random.Random(2)
        for _ in range(100):
            s = scan(SLICE, {bss(i): rng.randint(-100, -30) for i in range(8)})
            sizes = [len(filter_env(s, t).bssids) for t in (-100, -80, -60, -40)]
            assert sizes == sorted(sizes, reverse=True)


class TestEnvSimilarity:
    def test_identical_sets(self):
        assert env_similarity(fp(bss(1), bss(2)), fp(bss(1), bss(2))) == 1.0

    def test_disjoint_sets(self):
        assert env_similarity(fp(bss(1)), fp(bss(2))) == 0.0

    def test_partial_overlap(self):
        assert env_similarity(fp(bss(1), bss(2)), fp(bss(2), bss(3))) == pytest.approx(1 / 3)

    def test_both_empty_scores_zero(self):
        assert env_similarity(fp(), fp()) == 0.0

    def test_symmetric_and_one_iff_equal(self):
        rng = random.Random(4)
        for _ in range(200):
            a = fp(*{bss(rng.randint(0, 5)) for _ in range(rng.randint(0, 4))})
            b = fp(*{bss(rng.randint(0, 5)) for _ in range(rng.randint(0, 4))})
            sab = env_similarity(a, b)
            assert sab == env_similarity(b, a)
            if a.bssids and a.bssids == b.bssids:
                assert sab == 1.0
            else:
                assert sab < 1.0 or (not a.bssids and not b.bssids)


class TestNnPredict:
    def test_singleton_history(self):
        history = [HistoryPoint(fp(bss(1)), 120)]
        p, comparisons = nn_predict(history, fp(bss(1)))
        assert p.tl_seconds == 120
        assert comparisons == 1
        assert p.lookups == 1

    def test_argmax_similarity_wins(self):
        history = [
            HistoryPoint(fp(bss(1), bss(2)), 100),   # similarity 1.0
            HistoryPoint(fp(bss(3)), 700),           # similarity 0.0
        ]
        p, _ = nn_predict(history, fp(bss(1), bss(2)))
        assert p.tl_seconds == 100

    def test_comparisons_equal_history_size(self):
        for n in (1, 10, 100):
            history = [HistoryPoint(fp(bss(i % 5)), i) for i in range(n)]
            _, comparisons = nn_predict(history, fp(bss(0)))
            assert comparisons == n

    def test_tied_candidates_resolved_by_seed(self):
        history = [
            HistoryPoint(fp(bss(1)), 100),
            HistoryPoint(fp(bss(1)), 900),
        ]
        query = fp(bss(1))
        first, _ = nn_predict(history, query, seed=1)
        again, _ = nn_predict(history, query, seed=1)
        assert first.tl_seconds == again.tl_seconds  # same seed, same pick
        picks = {nn_predict(history, query, seed=s)[0].tl_seconds for s in range(30)}
        assert picks == {100, 900}  # different seeds reach both candidates

    def test_empty_history_raises(self):
        with pytest.raises(NoHistory):
            nn_predict([], fp(bss(1)))

    @given(
        st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=30),
        st.frozensets(st.integers(0, 7)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_env_similarity_scan(self, sets, query_ids, seed):
        """The inlined Jaccard in nn_predict picks exactly what a scan with
        env_similarity picks: same tie list, same order, same seeded draw."""
        history = [HistoryPoint(fp(*map(bss, ids)), i) for i, ids in enumerate(sets)]
        query = fp(*map(bss, query_ids))
        sims = [env_similarity(query, p.fingerprint) for p in history]
        tied = [p for p, s in zip(history, sims) if s == max(sims)]
        expected = tied[0] if len(tied) == 1 else random.Random(seed).choice(tied)
        prediction, comparisons = nn_predict(history, query, seed=seed)
        assert prediction.tl_seconds == expected.tl_seconds
        assert comparisons == len(history)


class TestBuildHistory:
    def test_history_points_have_nonnegative_tl(self):
        from timeloc import simulator as sim

        route = sim.make_chain_route()
        trace, truth = sim.synth_day(route, sim.WALK, sim.NoiseParams(rssi_sigma_db=4.0), seed=3)
        history = build_history([trace], route.home_bssid, -70)
        assert history
        assert all(h.tl_seconds >= 0 for h in history)
        assert all(h.fingerprint.bssids for h in history)

    def test_history_is_the_concatenation_of_day_histories(self):
        from timeloc import simulator as sim

        scenario = sim.mixture_scenario(n_days=4)
        traces, _ = sim.synth_dataset(scenario, seed=9)
        home = scenario.route.home_bssid
        for level in (None, -70):
            per_day = [p for t in traces for p in day_history(t, home, level)]
            assert build_history(traces, home, level) == per_day

    def test_weak_only_scans_survive_at_all_level(self):
        from timeloc import simulator as sim

        route = sim.make_chain_route()  # includes the weak mid-route bridge
        trace, _ = sim.synth_day(route, sim.WALK, sim.NoiseParams(rssi_sigma_db=4.0), seed=3)
        unfiltered = build_history([trace], route.home_bssid, None)
        filtered = build_history([trace], route.home_bssid, -70)
        assert len(unfiltered) > len(filtered)
