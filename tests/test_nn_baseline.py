import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloc.errors import NoHistory
from timeloc.nn_baseline import (
    HistoryPoint,
    NnHistory,
    build_history,
    day_history,
    filter_env,
    nn_predict,
)
from timeloc.trace_model import filter_trace
from util import B, SLICE, bss, commute_day, scan, trace


def fp(*bssids):
    return frozenset(bssids)


def env_similarity(a, b):
    """Jaccard index of the two BSSID sets; two empty sets score 0.

    The reference for the similarity that nn_predict computes inline.
    """
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def fingerprint_at(s, level):
    """The fingerprint of one scan after its day is filtered at level."""
    return filter_env(filter_trace(trace([s]), level).scans[0])


class TestFilterEnv:
    def test_threshold_boundary_is_inclusive(self):
        s = scan(SLICE, {B("aa:00:00:00:00:01"): -60, B("aa:00:00:00:00:02"): -75, B("aa:00:00:00:00:03"): -70})
        kept = fingerprint_at(s, -70)
        assert kept == {B("aa:00:00:00:00:01"), B("aa:00:00:00:00:03")}

    def test_low_threshold_keeps_all(self):
        s = scan(SLICE, {bss(1): -119, bss(2): -45})
        assert fingerprint_at(s, -120) == {bss(1), bss(2)}
        assert fingerprint_at(s, None) == filter_env(s) == {bss(1), bss(2)}

    def test_total_rejection_yields_empty(self):
        s = scan(SLICE, {bss(1): -90, bss(2): -85})
        assert fingerprint_at(s, -70) == frozenset()

    def test_raising_threshold_never_grows_fingerprint(self):
        rng = random.Random(2)
        for _ in range(100):
            s = scan(SLICE, {bss(i): rng.randint(-100, -30) for i in range(8)})
            sizes = [len(fingerprint_at(s, t)) for t in (-100, -80, -60, -40)]
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
            if a and a == b:
                assert sab == 1.0
            else:
                assert sab < 1.0 or (not a and not b)


class TestNnPredict:
    def test_singleton_history(self):
        history = NnHistory([HistoryPoint(fp(bss(1)), 120)])
        assert nn_predict(history, fp(bss(1))) == (120, 1)

    def test_argmax_similarity_wins(self):
        history = NnHistory([
            HistoryPoint(fp(bss(1), bss(2)), 100),   # similarity 1.0
            HistoryPoint(fp(bss(3)), 700),           # similarity 0.0
        ])
        tl_s, _ = nn_predict(history, fp(bss(1), bss(2)))
        assert tl_s == 100

    def test_comparisons_equal_history_size(self):
        for n in (1, 10, 100):
            history = NnHistory(HistoryPoint(fp(bss(i % 5)), i) for i in range(n))
            _, comparisons = nn_predict(history, fp(bss(0)))
            assert comparisons == n

    def test_tied_candidates_resolved_by_seed(self):
        history = NnHistory([
            HistoryPoint(fp(bss(1)), 100),
            HistoryPoint(fp(bss(1)), 900),
        ])
        query = fp(bss(1))
        first, _ = nn_predict(history, query, seed=1)
        again, _ = nn_predict(history, query, seed=1)
        assert first == again  # same seed, same pick
        picks = {nn_predict(history, query, seed=s)[0] for s in range(30)}
        assert picks == {100, 900}  # different seeds reach both candidates

    def test_empty_history_raises(self):
        with pytest.raises(NoHistory):
            nn_predict(NnHistory(), fp(bss(1)))

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
        assert nn_predict(NnHistory(history), query, seed=seed) == (expected.tl_seconds, len(history))


def per_point_scan(history, query, seed):
    """The linear scan nn_predict replaced: one similarity per history point.

    Kept as the reference for the per-fingerprint scoring.  Returns the
    picked point's label and the comparison count.
    """
    nq = len(query)
    best_sim = -1.0
    tied = []
    for point in history:
        b = point.fingerprint
        inter = len(query & b)
        union = nq + len(b) - inter
        sim = inter / union if union else 0.0
        if sim > best_sim:
            best_sim = sim
            tied = [point]
        elif sim == best_sim:
            tied.append(point)
    choice = tied[0] if len(tied) == 1 else random.Random(seed).choice(tied)
    return choice.tl_seconds, len(history)


def points(*id_sets):
    """History points labelled with their position, so a label names the point picked."""
    return [HistoryPoint(fp(*map(bss, ids)), i) for i, ids in enumerate(id_sets)]


@st.composite
def repeated_histories(draw):
    """Histories drawn from a small pool of fingerprints over six BSSIDs.

    Points repeat pool entries heavily, and a pool entry may be empty.
    """
    pool = draw(st.lists(st.frozensets(st.integers(0, 5), max_size=4), min_size=1, max_size=6))
    return points(*draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60)))


class TestNnHistory:
    @settings(max_examples=300, deadline=None)
    @given(repeated_histories(), st.frozensets(st.integers(0, 5), max_size=4), st.integers(0, 2**32 - 1))
    # different fingerprints with equal ratios: {0} and {0, 1, 2, 3} both score 1/2
    @example(points({0}, {2}, {0, 1, 2, 3}, {0}, {0, 1, 2, 3}), frozenset({0, 1}), 5)
    # empty fingerprints against an empty query: every union is 0
    @example(points(set(), set(), {1}, set()), frozenset(), 11)
    # two groups tied at 1/2, interleaved in history order
    @example(points({0, 2}, {0, 3}, {0, 3}, {0, 2}, {4}, {0, 2}), frozenset({0}), 2**32 - 1)
    def test_matches_the_per_point_scan(self, history, query_ids, seed):
        query = fp(*map(bss, query_ids))
        assert nn_predict(NnHistory(history), query, seed=seed) == per_point_scan(history, query, seed)

    @given(repeated_histories())
    def test_groups_index_every_point_once(self, history):
        index = NnHistory(history)
        assert index == tuple(history)
        fingerprints = [f for f, _ in index.groups]
        assert fingerprints == list(dict.fromkeys(p.fingerprint for p in history))
        for f, positions in index.groups:
            assert list(positions) == [i for i, p in enumerate(history) if p.fingerprint == f]


class TestBuildHistory:
    def test_history_points_have_nonnegative_tl(self):
        from timeloc import simulator as sim

        route = sim.make_chain_route()
        trace, truth = commute_day(route, sim.WALK, sim.NoiseParams(rssi_sigma_db=4.0), seed=3)
        history = build_history([filter_trace(trace, -70)], route.home_bssid)
        assert history
        assert all(h.tl_seconds >= 0 for h in history)
        assert all(h.fingerprint for h in history)

    def test_history_is_the_concatenation_of_day_histories(self):
        from timeloc import simulator as sim

        scenario = sim.mixture_scenario(n_days=4)
        traces, _ = sim.synth_dataset(scenario, seed=9)
        home = scenario.route.home_bssid
        for level in (None, -70):
            filtered = [filter_trace(t, level) for t in traces]
            per_day = [p for t in filtered for p in day_history(t, home)]
            history = build_history(filtered, home)
            assert isinstance(history, NnHistory) and history == tuple(per_day)

    def test_weak_only_scans_survive_at_all_level(self):
        from timeloc import simulator as sim

        route = sim.make_chain_route()  # includes the weak mid-route bridge
        trace, _ = commute_day(route, sim.WALK, sim.NoiseParams(rssi_sigma_db=4.0), seed=3)
        unfiltered = build_history([filter_trace(trace, None)], route.home_bssid)
        filtered = build_history([filter_trace(trace, -70)], route.home_bssid)
        assert len(unfiltered) > len(filtered)


@st.composite
def commute_days(draw):
    """Time-ordered scans over a small AP pool holding the home AP, bss(0).

    Gaps are either scan-sized or longer than an absence, so a day can
    have zero, one or several homeward legs.
    """
    gaps = draw(st.lists(st.one_of(st.integers(1, 120), st.integers(3000, 5000)), max_size=30))
    scans = []
    ts = SLICE
    for gap in gaps:
        ts += gap
        ids = draw(st.sets(st.integers(0, 5), max_size=4))
        scans.append(scan(ts, {bss(i): draw(st.integers(-100, -30)) for i in ids}))
    return trace(scans)


@settings(max_examples=300, deadline=None)
@given(commute_days(), st.integers(-101, -29))
def test_a_filtered_trace_needs_no_second_filter(t, level):
    # The evaluation and predict filter each day once and then build history
    # and query fingerprints from it; filtering again at level changes nothing.
    filtered = filter_trace(t, level)
    assert filter_trace(filtered, level) == filtered
    for s, raw in zip(filtered.scans, t.scans):
        assert filter_env(s) == {o.bssid for o in raw.aps if o.rssi_dbm >= level}
