"""Evaluation protocol: signed-error CDFs, filter sweeps, probe accounting.

The first seven calendar days of a dataset only build history; from day
eight on, every route-AP loss instant on the homeward leg issues one query,
answered from the sliding window of the previous seven days.  Signed errors
are predicted minus actual seconds-to-home, so negative means early (the
device got extra preparation time).

Each day is evaluated once.  An EvalDataset keeps a private store of
per-day artifacts, filled lazily by ``evaluate`` and kept for as long as
the dataset object lives.  Under the key (RSSI level, day) it holds the
filtered trace and that day's nightly vote; under each home BSSID asked
for, it adds the day's DayMap (None when home is never seen), its NN
history points and its query points (per query policy).  Sliding the
window is then a tally of cached votes and a concatenation of cached maps
or history, so ``evaluate`` of both methods and ``sweep_rssi_filter``
share every day's work instead of redoing it per evaluated day and method.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, Mapping, Sequence

from . import home_mining, nn_baseline, time_map
from .errors import (
    ColdStart,
    InsufficientHistory,
    NoArrival,
    NoHistory,
    NoNightData,
    UnknownBssid,
)
from .home_mining import DayVote
from .nn_baseline import HistoryPoint, filter_env, nn_predict, query_seed
from .simulator import GroundTruth
from .time_map import (
    SCAN_PERIOD_S,
    DayMap,
    UserProfile,
    homeward_leg,
    predict_tl,
)
from .trace_model import Bssid, DayTrace, ScanRecord, filter_trace

COLD_START_DAYS = 7


@dataclass(frozen=True, slots=True)
class ErrorSample:
    day_id: date
    query_ts: int
    signed_error_s: int
    method: str


@dataclass(frozen=True, slots=True)
class EvalReport:
    method: str
    n: int
    median_abs_s: float
    pct_within_100s: float
    early_fraction: float
    max_abs_s: int
    cdf: tuple[tuple[int, float], ...]
    probe_cost: float


@dataclass(frozen=True, slots=True)
class QueryPoint:
    """One prediction opportunity: an AP loss observed on the way home."""

    day_id: date
    query_ts: int
    bssid: Bssid
    observed_tdr_s: int
    scan: ScanRecord
    actual_tl_s: int


class _Day:
    """One day's artifacts at one RSSI level, each computed on first use.

    ``trace`` is the day filtered at ``level``.  The vote is per day; the
    DayMap, the NN history points and the query points are per home BSSID
    (and the query points also per query policy and arrival instant).
    """

    __slots__ = ("trace", "level", "_vote", "_maps", "_history", "_queries")

    def __init__(self, trace: DayTrace, level: int | None):
        self.trace = trace
        self.level = level
        self._vote: DayVote | None = None
        self._maps: dict[Bssid, DayMap | None] = {}
        self._history: dict[Bssid, list[HistoryPoint]] = {}
        self._queries: dict[tuple, tuple[QueryPoint, ...]] = {}

    @property
    def day_id(self) -> date:
        return self.trace.day_id

    def vote(self) -> DayVote:
        if self._vote is None:
            self._vote = home_mining.day_vote(self.trace)
        return self._vote

    def day_map(self, home: Bssid) -> DayMap | None:
        if home not in self._maps:
            try:
                self._maps[home] = time_map.build_day_map(self.trace, home)
            except NoArrival:
                self._maps[home] = None
        return self._maps[home]

    def history(self, home: Bssid) -> list[HistoryPoint]:
        points = self._history.get(home)
        if points is None:
            points = self._history[home] = nn_baseline.day_history(self.trace, home, self.level)
        return points

    def queries(self, home: Bssid, arrival_ts: int, policy) -> tuple[QueryPoint, ...]:
        key = (home, arrival_ts, policy)
        found = self._queries.get(key)
        if found is None:
            found = self._queries[key] = tuple(policy(self.trace, home, arrival_ts))
        return found


@dataclass(frozen=True, slots=True)
class EvalDataset:
    """Day traces with their ground truth, plus a private per-day artifact store.

    The store maps an RSSI level to one record per trace, in day order,
    holding what the module docstring lists.  ``evaluate`` fills it on
    demand; it lives as long as this object and never goes stale, because
    the traces and truths are not meant to change after construction.  It
    takes no part in equality or ``repr``.
    """

    traces: tuple[DayTrace, ...]
    truths: Mapping[date, GroundTruth]
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_lists(cls, traces: Iterable[DayTrace], truths: Iterable[GroundTruth]):
        ordered = tuple(sorted(traces, key=lambda t: t.day_id))
        return cls(traces=ordered, truths={g.day_id: g for g in truths})

    def _days(self, level: int | None) -> list[_Day]:
        """The day records at one RSSI level, in day order."""
        days = self._store.get(level)
        if days is None:
            ordered = sorted(self.traces, key=lambda t: t.day_id)
            days = self._store[level] = [_Day(filter_trace(t, level), level) for t in ordered]
        return days


def ap_loss_queries(
    trace: DayTrace,
    home: Bssid,
    arrival_ts: int,
    scan_period_s: int = SCAN_PERIOD_S,
) -> list[QueryPoint]:
    """Query points for one day: each route AP's loss-observation instant."""
    try:
        leg, home_ts = homeward_leg(trace, home)
    except NoArrival:
        return []
    first_seen: dict[Bssid, int] = {}
    last_seen: dict[Bssid, int] = {}
    for s in leg:
        for o in s.aps:
            first_seen.setdefault(o.bssid, s.ts)
            last_seen[o.bssid] = s.ts
    leg_ts = [s.ts for s in leg]
    final_bssids = leg[-1].bssids()

    queries = []
    for b, first in first_seen.items():
        if b == home or b in final_bssids:
            continue
        lost = last_seen[b] + scan_period_s
        if lost > home_ts:
            continue
        idx = bisect_right(leg_ts, last_seen[b])
        if idx >= len(leg):
            continue
        scan = leg[idx]
        if scan.ts >= arrival_ts:
            continue
        queries.append(
            QueryPoint(
                day_id=trace.day_id,
                query_ts=scan.ts,
                bssid=b,
                observed_tdr_s=lost - first,
                scan=scan,
                actual_tl_s=arrival_ts - scan.ts,
            )
        )
    queries.sort(key=lambda q: (q.query_ts, q.bssid))
    return queries


# Built-in predictors start each day from the window's cached day records
# (``start_window``); other predictors get the filtered window traces through
# the public ``name``/``start_day(window, home, threshold)``/``predict(q)``
# interface, via _TraceWindow.

class TlsPredictor:
    """Window-profile predictor; answers in a constant two probes."""

    name = "tls"

    def __init__(self, window_days: int = COLD_START_DAYS):
        self.window_days = window_days
        self._profile: UserProfile | None = None

    def start_window(self, days: Sequence[_Day], home: Bssid, threshold) -> None:
        maps = [m for m in (d.day_map(home) for d in days) if m is not None]
        window = tuple(maps[-self.window_days :])
        built_at = window[-1].day_id if window else date.min
        self._profile = UserProfile(home_bssid=home, window=window, fallback={}, built_at=built_at)

    def predict(self, q: QueryPoint) -> tuple[int, int] | None:
        try:
            p = predict_tl(self._profile, q.bssid, q.observed_tdr_s)
        except (ColdStart, UnknownBssid):
            return None
        return p.tl_seconds, p.lookups


class NnPredictor:
    """Linear-scan fingerprint matcher over the same sliding window."""

    name = "nn"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._history: list[HistoryPoint] = []
        self._threshold = None

    def start_window(self, days: Sequence[_Day], home: Bssid, threshold) -> None:
        self._history = [p for d in days for p in d.history(home)]
        self._threshold = threshold

    def predict(self, q: QueryPoint) -> tuple[int, int] | None:
        fingerprint = filter_env(q.scan, self._threshold)
        try:
            p, comparisons = nn_predict(
                self._history,
                fingerprint,
                seed=query_seed(self.seed, q.day_id, q.query_ts, q.bssid),
            )
        except NoHistory:
            return None
        return p.tl_seconds, comparisons


class _TraceWindow:
    """Adapts a predictor with the public ``start_day`` interface."""

    def __init__(self, predictor):
        self.predictor = predictor
        self.name = predictor.name

    def start_window(self, days: Sequence[_Day], home: Bssid, threshold) -> None:
        self.predictor.start_day([d.trace for d in days], home, threshold)

    def predict(self, q: QueryPoint) -> tuple[int, int] | None:
        return self.predictor.predict(q)


def _resolve_predictor(method, seed: int):
    if method == "tls":
        return TlsPredictor()
    if method == "nn":
        return NnPredictor(seed=seed)
    return _TraceWindow(method)  # an object implementing name/start_day/predict


def cdf(samples: Sequence[int | float]) -> list[tuple[int | float, float]]:
    """Empirical CDF of absolute errors as right-continuous step points."""
    if not samples:
        raise ValueError("cannot build a CDF from zero samples")
    ordered = sorted(samples)
    n = len(ordered)
    points = []
    for i, v in enumerate(ordered, start=1):
        if i == n or ordered[i] != v:
            points.append((v, i / n))
    return points


def evaluate(
    method,
    dataset: EvalDataset,
    query_policy=ap_loss_queries,
    *,
    rssi_threshold_dbm: int | None = -70,
    window_days: int = COLD_START_DAYS,
    seed: int = 0,
) -> EvalReport:
    """Run one predictor over the dataset and aggregate its error report.

    ``method`` is "tls", "nn", or any object with the predictor interface.
    Per-day work comes from, and is added to, the dataset's artifact store.
    Raises InsufficientHistory unless the dataset spans more than a week.
    """
    days = dataset._days(rssi_threshold_dbm)
    if not days:
        raise InsufficientHistory("empty dataset")
    first_day = days[0].day_id
    span = (days[-1].day_id - first_day).days + 1
    if span <= COLD_START_DAYS:
        raise InsufficientHistory(
            f"dataset spans {span} day(s); need more than {COLD_START_DAYS}"
        )

    predictor = _resolve_predictor(method, seed)

    samples: list[ErrorSample] = []
    probes: list[int] = []
    for day in days:
        age = (day.day_id - first_day).days
        if age < COLD_START_DAYS:
            continue  # history only: no predictions in the first week
        window = [d for d in days if 0 < (day.day_id - d.day_id).days <= window_days]
        if not window:
            continue
        try:
            home = home_mining.tally_votes(d.vote() for d in window).winner
        except NoNightData:
            continue
        truth = dataset.truths.get(day.day_id)
        if truth is None:
            continue
        predictor.start_window(window, home, rssi_threshold_dbm)
        for q in day.queries(home, truth.arrival_ts, query_policy):
            answer = predictor.predict(q)
            if answer is None:
                continue
            predicted, cost = answer
            samples.append(
                ErrorSample(
                    day_id=q.day_id,
                    query_ts=q.query_ts,
                    signed_error_s=predicted - q.actual_tl_s,
                    method=predictor.name,
                )
            )
            probes.append(cost)

    samples.sort(key=lambda s: (s.day_id, s.query_ts))
    return _build_report(predictor.name, samples, probes)


def _build_report(name: str, samples: list[ErrorSample], probes: list[int]) -> EvalReport:
    if not samples:
        return EvalReport(name, 0, 0.0, 0.0, 0.0, 0, (), 0.0)
    abs_errors = [abs(s.signed_error_s) for s in samples]
    n = len(samples)
    return EvalReport(
        method=name,
        n=n,
        median_abs_s=float(statistics.median(abs_errors)),
        pct_within_100s=sum(1 for e in abs_errors if e <= 100) / n,
        early_fraction=sum(1 for s in samples if s.signed_error_s <= 0) / n,
        max_abs_s=max(abs_errors),
        cdf=tuple(cdf(abs_errors)),
        probe_cost=sum(probes) / len(probes),
    )


def sweep_rssi_filter(
    dataset: EvalDataset,
    levels: Sequence[int | None],
    *,
    methods: Sequence[str] = ("tls", "nn"),
    seed: int = 0,
) -> list[tuple[str, EvalReport]]:
    """One full evaluation per (RSSI level, method); None means keep all APs."""
    if len(levels) < 2:
        raise ValueError("a sweep needs at least two RSSI levels")
    rows = []
    for level in levels:
        label = "all" if level is None else str(level)
        for method in methods:
            report = evaluate(method, dataset, rssi_threshold_dbm=level, seed=seed)
            rows.append((label, report))
    return rows


# ---------------------------------------------------------------------------
# CSV emission (deterministic formatting)

REPORT_HEADER = "method,level,n,median_abs_s,pct_within_100s,early_fraction,max_abs_s,probe_cost"


def report_csv(rows: Sequence[tuple[str, EvalReport]]) -> str:
    lines = [REPORT_HEADER]
    for level, r in rows:
        lines.append(
            f"{r.method},{level},{r.n},{r.median_abs_s:.3f},{r.pct_within_100s:.6f},"
            f"{r.early_fraction:.6f},{r.max_abs_s},{r.probe_cost:.3f}"
        )
    return "\n".join(lines) + "\n"


def cdf_csv(report: EvalReport) -> str:
    lines = ["error_s,cum_frac"]
    for value, frac in report.cdf:
        lines.append(f"{value},{frac:.6f}")
    return "\n".join(lines) + "\n"
