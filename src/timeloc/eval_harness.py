"""Evaluation protocol: signed-error CDFs, filter sweeps, probe accounting.

The first seven calendar days of a dataset only build history; from day
eight on, every route-AP loss instant on the homeward leg issues one query,
answered from the sliding window of the previous seven days.  Signed errors
are predicted minus actual seconds-to-home, so negative means early (the
device got extra preparation time).

Each day is evaluated once.  An EvalDataset keeps one EvalDay record per
(RSSI level, day), filled lazily by ``evaluate`` and kept for as long as
the dataset object lives.  A record holds the filtered trace and that
day's nightly vote; under each home BSSID asked for, it adds the day's
DayMap (None when home is never seen), its NN history points and its
query points.  Sliding the window is then a tally of cached votes and a
concatenation of cached maps or history, so ``evaluate`` of both methods
and ``sweep_rssi_filter`` share every day's work instead of redoing it
per evaluated day and method.

Every predictor, built-in or not, has the same three members: ``name``,
``start_day(days, home)``, called once per evaluated day with the window's
EvalDay records, and ``predict(q)``, which returns ``(predicted_tl_s,
probe_cost)`` or None to skip the query.  The records and the query scans
are already filtered at the RSSI level of the evaluation, so a predictor
need not filter them again.
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
    NoHistory,
    NoNightData,
    UnknownBssid,
)
from .nn_baseline import HistoryPoint, NnHistory, filter_env, nn_predict
from .simulator import GroundTruth, _mix
from .time_map import (
    WINDOW_DAYS,
    DayMap,
    UserProfile,
    build_profile_from_maps,
    leg_losses,
    predict_tl,
)
from .trace_model import Bssid, DayTrace, ScanRecord, filter_trace, ts_of


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


class EvalDay:
    """One day's artifacts at one RSSI level.

    ``trace`` is the day filtered at that level and ``vote`` its nightly
    ballot, both made with the record; ``day_map(home)`` (None when home is
    never seen), ``history(home)`` and the query points are made on first
    use, per home BSSID (queries also per arrival), all three from one
    ``leg_losses`` of the day per home.  A predictor must not change a
    record: every evaluation of its dataset shares it.
    """

    __slots__ = ("trace", "vote", "_legs", "_maps", "_history", "_queries")

    def __init__(self, trace: DayTrace):
        self.trace = trace
        self.vote = home_mining.day_vote(trace)
        self._legs: dict[Bssid, tuple] = {}
        self._maps: dict[Bssid, DayMap | None] = {}
        self._history: dict[Bssid, list[HistoryPoint]] = {}
        self._queries: dict[tuple[Bssid, int], tuple[QueryPoint, ...]] = {}

    @property
    def day_id(self) -> date:
        return self.trace.day_id

    def _leg(self, home: Bssid) -> tuple:
        leg = self._legs.get(home)
        if leg is None:
            leg = self._legs[home] = leg_losses(self.trace, home)
        return leg

    def day_map(self, home: Bssid) -> DayMap | None:
        if home not in self._maps:
            self._maps[home] = time_map.leg_day_map(self.day_id, self._leg(home))
        return self._maps[home]

    def history(self, home: Bssid) -> list[HistoryPoint]:
        points = self._history.get(home)
        if points is None:
            points = self._history[home] = nn_baseline.leg_history(self._leg(home))
        return points

    def queries(self, home: Bssid, arrival_ts: int) -> tuple[QueryPoint, ...]:
        key = (home, arrival_ts)
        found = self._queries.get(key)
        if found is None:
            found = self._queries[key] = tuple(leg_queries(self.day_id, self._leg(home), arrival_ts))
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

    def _days(self, level: int | None) -> list[EvalDay]:
        """The day records at one RSSI level, in day order."""
        days = self._store.get(level)
        if days is None:
            ordered = sorted(self.traces, key=lambda t: t.day_id)
            days = self._store[level] = [EvalDay(filter_trace(t, level)) for t in ordered]
        return days


def ap_loss_queries(trace: DayTrace, home: Bssid, arrival_ts: int) -> list[QueryPoint]:
    """Query points for one day: each observed route-AP loss before arrival.

    The query is issued at the first leg scan after the AP's last sighting.
    """
    return leg_queries(trace.day_id, leg_losses(trace, home), arrival_ts)


def leg_queries(day_id: date, day_leg: tuple, arrival_ts: int) -> list[QueryPoint]:
    """``ap_loss_queries`` of day ``day_id`` from its ``leg_losses``."""
    leg, _, losses = day_leg

    queries = []
    for b, (first, last, lost) in losses.items():
        if lost is None:
            continue
        scan = leg[bisect_right(leg, last, key=ts_of)]
        if scan.ts >= arrival_ts:
            continue
        queries.append(
            QueryPoint(
                day_id=day_id,
                query_ts=scan.ts,
                bssid=b,
                observed_tdr_s=lost - first,
                scan=scan,
                actual_tl_s=arrival_ts - scan.ts,
            )
        )
    queries.sort(key=lambda q: (q.query_ts, q.bssid))
    return queries


class TlsPredictor:
    """Window-profile predictor; answers in a constant two probes."""

    name = "tls"

    def __init__(self):
        self._profile: UserProfile | None = None

    def start_day(self, days: Sequence[EvalDay], home: Bssid) -> None:
        maps = (d.day_map(home) for d in days)
        self._profile = build_profile_from_maps(home, [m for m in maps if m is not None])

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
        self._history = NnHistory()

    def start_day(self, days: Sequence[EvalDay], home: Bssid) -> None:
        self._history = NnHistory(p for d in days for p in d.history(home))

    def predict(self, q: QueryPoint) -> tuple[int, int] | None:
        try:
            return nn_predict(
                self._history,
                filter_env(q.scan),
                seed=_mix(self.seed, q.day_id, q.query_ts, q.bssid),
            )
        except NoHistory:
            return None


def _resolve_predictor(method, seed: int):
    if method == "tls":
        return TlsPredictor()
    if method == "nn":
        return NnPredictor(seed=seed)
    return method


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
    *,
    level_dbm: int | None = -70,
    seed: int = 0,
) -> EvalReport:
    """Run one predictor over the dataset and aggregate its error report.

    ``method`` is "tls", "nn", or any predictor object, used as it is (a
    NnPredictor keeps its own seed).  The days are filtered at
    ``level_dbm`` by ``filter_trace`` (None keeps every AP).  Per-day work
    comes from, and is added to, the dataset's artifact store.  Raises
    InsufficientHistory unless the dataset spans more than a week.
    """
    days = dataset._days(level_dbm)
    if not days:
        raise InsufficientHistory("empty dataset")
    first_day = days[0].day_id
    span = (days[-1].day_id - first_day).days + 1
    if span <= WINDOW_DAYS:
        raise InsufficientHistory(
            f"dataset spans {span} day(s); need more than {WINDOW_DAYS}"
        )

    predictor = _resolve_predictor(method, seed)

    errors: list[int] = []
    probes: list[int] = []
    for day in days:
        age = (day.day_id - first_day).days
        if age < WINDOW_DAYS:
            continue  # history only: no predictions in the first week
        window = home_mining.days_before(days, day.day_id, WINDOW_DAYS)
        try:
            home = home_mining.tally_votes(d.vote for d in window).winner
        except NoNightData:
            continue
        truth = dataset.truths.get(day.day_id)
        if truth is None:
            continue
        predictor.start_day(window, home)
        for q in day.queries(home, truth.arrival_ts):
            answer = predictor.predict(q)
            if answer is None:
                continue
            predicted, cost = answer
            errors.append(predicted - q.actual_tl_s)
            probes.append(cost)

    return _build_report(predictor.name, errors, probes)


def _build_report(name: str, errors: list[int], probes: list[int]) -> EvalReport:
    """Aggregate signed errors and probe costs; no statistic depends on order."""
    if not errors:
        return EvalReport(name, 0, 0.0, 0.0, 0.0, 0, (), 0.0)
    abs_errors = [abs(e) for e in errors]
    n = len(errors)
    return EvalReport(
        method=name,
        n=n,
        median_abs_s=float(statistics.median(abs_errors)),
        pct_within_100s=sum(1 for e in abs_errors if e <= 100) / n,
        early_fraction=sum(1 for e in errors if e <= 0) / n,
        max_abs_s=max(abs_errors),
        cdf=tuple(cdf(abs_errors)),
        probe_cost=sum(probes) / len(probes),
    )


def sweep_rssi_filter(
    dataset: EvalDataset,
    levels: Sequence[int | None],
    *,
    seed: int = 0,
) -> list[tuple[str, EvalReport]]:
    """One full evaluation of tls, then nn, per RSSI level; None keeps all APs."""
    if len(levels) < 2:
        raise ValueError("a sweep needs at least two RSSI levels")
    rows = []
    for level in levels:
        label = "all" if level is None else str(level)
        for method in ("tls", "nn"):
            report = evaluate(method, dataset, level_dbm=level, seed=seed)
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
