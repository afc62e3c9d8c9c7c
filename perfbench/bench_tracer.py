"""Spans and counters around timeloc's public entry points, for the traced run.

``install`` replaces each entry point named in ``SPANS`` with a wrapper that
records a span (name, start, end, parent) and adds the call's self time, its
duration minus the time its child spans cover, to the entry point's metric.
The replacement is made in every timeloc module that holds the function,
so a name imported on its own (``vote_home_ap`` in ``cli``, ``eval_harness``
and ``time_map``) is wrapped everywhere it is called from.

Two pitfalls, handled here:

* ``evaluate`` binds ``query_policy=ap_loss_queries`` as a default argument
  when it is defined, so patching the module attribute cannot reach that
  call.  Query generation inside ``evaluate`` therefore counts as
  eval_harness self time; only direct calls of ``ap_loss_queries`` get a
  span of their own, and they belong to the same layer.
* Only entry points are wrapped, never per-comparison helpers such as
  ``env_similarity``, ``filter_env``, ``homeward_leg`` or the ``Bssid``
  dunders: those run 10^5-10^6 times per pass and the trace would be mostly
  overhead.  ``nightly_dwell`` and the evaluation predictors' ``predict``
  get a counter, not a span.

Spans stay in memory; ``dump_spans`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

# (layer, module, attribute, self-time metric); "Class.method" names a method
SPANS = (
    ("trace_model", "trace_model", "load_trace_file", "parse_s"),
    ("trace_model", "trace_model", "load_accel_file", "parse_s"),
    ("trace_model", "trace_model", "parse_trace_file", "parse_s"),
    ("trace_model", "trace_model", "parse_accel_file", "parse_s"),
    ("trace_model", "trace_model", "serialize_scan_records", "serialize_s"),
    ("trace_model", "trace_model", "serialize_accel_samples", "serialize_s"),
    ("trace_model", "trace_model", "slice_into_days", "slice_s"),
    ("trace_model", "trace_model", "filter_trace", "filter_s"),
    ("simulator", "simulator", "synth_dataset", "synth_s"),
    ("simulator", "simulator", "synth_plan_day", "synth_s"),
    ("simulator", "simulator", "make_day_plan", "synth_s"),
    ("simulator", "simulator", "DayOracle.aps_at", "oracle_s"),
    ("home_mining", "home_mining", "vote_home_ap", "vote_s"),
    ("time_map", "time_map", "build_day_map", "build_day_map_s"),
    ("time_map", "time_map", "update_profile", "update_profile_s"),
    ("time_map", "time_map", "predict_tl", "predict_s"),
    ("time_map", "time_map", "profile_to_json", "persist_s"),
    ("time_map", "time_map", "profile_from_json", "persist_s"),
    ("time_map", "time_map", "save_profile", "persist_s"),
    ("time_map", "time_map", "load_profile", "persist_s"),
    ("nn_baseline", "nn_baseline", "build_history", "build_history_s"),
    ("nn_baseline", "nn_baseline", "nn_predict", "predict_s"),
    ("eval_harness", "eval_harness", "evaluate", "self_s"),
    ("eval_harness", "eval_harness", "sweep_rssi_filter", "self_s"),
    ("eval_harness", "eval_harness", "ap_loss_queries", "self_s"),
    ("door_detect", "door_detect", "detect_door_events", "detect_s"),
    ("sensing_fsm", "sensing_fsm", "run_fsm_day", "day_s"),
    ("cli", "cli", "main", "self_s"),
)

# counters only: no span, so their time stays in the caller's self time
COUNTED = (
    ("home_mining", "nightly_dwell"),
    ("eval_harness", "TlsPredictor.predict"),
    ("eval_harness", "NnPredictor.predict"),
)

# every per-layer metric, in report order, with its unit
LAYER_METRICS = (
    ("trace_model.parse_s", "s"),
    ("trace_model.serialize_s", "s"),
    ("trace_model.slice_s", "s"),
    ("trace_model.filter_s", "s"),
    ("trace_model.records_parsed", "count"),
    ("trace_model.bytes_parsed", "bytes"),
    ("trace_model.parse_calls", "count"),
    ("trace_model.parse_useful_ratio", "ratio"),
    ("simulator.synth_s", "s"),
    ("simulator.days", "count"),
    ("simulator.scans", "count"),
    ("simulator.oracle_s", "s"),
    ("simulator.oracle_calls", "count"),
    ("home_mining.vote_s", "s"),
    ("home_mining.vote_calls", "count"),
    ("home_mining.dwell_calls", "count"),
    ("home_mining.dwell_useful_ratio", "ratio"),
    ("time_map.build_day_map_s", "s"),
    ("time_map.build_day_map_calls", "count"),
    ("time_map.day_map_useful_ratio", "ratio"),
    ("time_map.update_profile_s", "s"),
    ("time_map.predict_s", "s"),
    ("time_map.predict_calls", "count"),
    ("time_map.predict_p99_us", "us"),
    ("time_map.persist_s", "s"),
    ("nn_baseline.build_history_s", "s"),
    ("nn_baseline.predict_s", "s"),
    ("nn_baseline.queries", "count"),
    ("nn_baseline.comparisons", "count"),
    ("eval_harness.self_s", "s"),
    ("eval_harness.evaluate_calls", "count"),
    ("eval_harness.queries", "count"),
    ("eval_harness.answered", "count"),
    ("eval_harness.answered_ratio", "ratio"),
    ("door_detect.detect_s", "s"),
    ("door_detect.days", "count"),
    ("door_detect.events", "count"),
    ("sensing_fsm.day_s", "s"),
    ("sensing_fsm.wakeups", "count"),
    ("sensing_fsm.wifi_scans", "count"),
    ("cli.self_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_run_s", "s"),
    ("bench.untraced_run_s", "s"),
    ("bench.overhead_s", "s"),
)


def _day_key(trace) -> tuple:
    """Tells days apart for the useful-work ratios: the same day filtered at
    another threshold, or drawn from another seed, gets another key."""
    rssi = [o.rssi_dbm for s in trace.scans for o in s.aps]
    return trace.day_id, len(trace.scans), len(rssi), sum(rssi)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans plus per-pass self-time sums and counters."""

    def __init__(self):
        self.names: list[str] = []  # span name by name id
        self._stack: list[list] = []  # [span id, child time] per open span
        self.reset()

    def reset(self) -> None:
        """Forget the previous pass: spans, self times, counters."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.predict_durations: list[float] = []
        self.root_s = 0.0  # summed duration of spans without a parent

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def span(self, name: str, metric: str, fn, after=None):
        """``fn`` wrapped to record a span and add its self time to ``metric``."""
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        keep_durations = name == "time_map.predict_tl"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[sid] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                self.self_s[metric] = self.self_s.get(metric, 0.0) + duration - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if keep_durations:
                    self.predict_durations.append(duration)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, fn, after):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return counting

    # -- counters fed from call arguments and results ---------------------

    def _after_load(self, args, result) -> None:
        st = os.stat(args[0])
        self.add("trace_model.bytes_parsed", st.st_size)
        self.keys.setdefault("files", set()).add((os.fspath(args[0]), st.st_size, st.st_mtime_ns))

    def _after_parse(self, args, result) -> None:
        self.add("trace_model.parse_calls")
        self.add("trace_model.records_parsed", len(result))
        if isinstance(args[0], (bytes, str)):
            self.add("trace_model.bytes_parsed", len(args[0]))

    def _after_synth_day(self, args, result) -> None:
        self.add("simulator.days")
        self.add("simulator.scans", len(result[0].scans))

    def _after_dwell(self, args, result) -> None:
        self.add("home_mining.dwell_calls")
        self.keys.setdefault("dwell", set()).add(_day_key(args[0]))

    def _after_day_map(self, args, result) -> None:
        self.keys.setdefault("day_map", set()).add((_day_key(args[0]), str(args[1])))

    def _after_nn(self, args, result) -> None:
        self.add("nn_baseline.comparisons", result[1])

    def _after_eval_predict(self, args, result) -> None:
        self.add("eval_harness.queries")
        if result is not None:
            self.add("eval_harness.answered")

    def _after_door(self, args, result) -> None:
        self.add("door_detect.events", len(result))

    def _after_fsm(self, args, result) -> None:
        self.add("sensing_fsm.wakeups", result[1].wakeups)
        self.add("sensing_fsm.wifi_scans", result[1].wifi_scans)

    _AFTER = {
        "trace_model.load_trace_file": _after_load,
        "trace_model.load_accel_file": _after_load,
        "trace_model.parse_trace_file": _after_parse,
        "trace_model.parse_accel_file": _after_parse,
        "simulator.synth_plan_day": _after_synth_day,
        "home_mining.nightly_dwell": _after_dwell,
        "time_map.build_day_map": _after_day_map,
        "nn_baseline.nn_predict": _after_nn,
        "eval_harness.TlsPredictor.predict": _after_eval_predict,
        "eval_harness.NnPredictor.predict": _after_eval_predict,
        "door_detect.detect_door_events": _after_door,
        "sensing_fsm.run_fsm_day": _after_fsm,
    }

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, traced_run_s: float) -> dict[str, float]:
        """Metrics of the pass just traced; ``traced_run_s`` is its wall time."""
        calls, counts, keys = self.calls, self.counts, self.keys
        m = {name: 0.0 for name, _ in LAYER_METRICS}
        m.update(self.self_s)
        m.update(counts)
        m["trace_model.parse_useful_ratio"] = _ratio(
            len(keys.get("files", ())), counts.get("trace_model.parse_calls", 0)
        )
        m["simulator.oracle_calls"] = calls.get("simulator.DayOracle.aps_at", 0)
        m["home_mining.vote_calls"] = calls.get("home_mining.vote_home_ap", 0)
        m["home_mining.dwell_useful_ratio"] = _ratio(
            len(keys.get("dwell", ())), counts.get("home_mining.dwell_calls", 0)
        )
        day_maps = calls.get("time_map.build_day_map", 0)
        m["time_map.build_day_map_calls"] = day_maps
        m["time_map.day_map_useful_ratio"] = _ratio(len(keys.get("day_map", ())), day_maps)
        m["time_map.predict_calls"] = calls.get("time_map.predict_tl", 0)
        if self.predict_durations:
            ordered = sorted(self.predict_durations)
            m["time_map.predict_p99_us"] = ordered[int(0.99 * (len(ordered) - 1))] * 1e6
        m["nn_baseline.queries"] = calls.get("nn_baseline.nn_predict", 0)
        m["eval_harness.evaluate_calls"] = calls.get("eval_harness.evaluate", 0)
        m["eval_harness.answered_ratio"] = _ratio(
            counts.get("eval_harness.answered", 0), counts.get("eval_harness.queries", 0)
        )
        m["door_detect.days"] = calls.get("door_detect.detect_door_events", 0)
        m["bench.unattributed_s"] = traced_run_s - self.root_s
        m["bench.traced_run_s"] = traced_run_s
        return m

    def spans(self) -> tuple:
        """This pass's spans: (names, name ids, starts, ends, parent ids)."""
        return list(self.names), self.span_name, self.span_start, self.span_end, self.span_parent


def dump_spans(spans: tuple, path) -> None:
    """Write spans as JSON; a parent is the index of another span, or -1."""
    names, name_ids, starts, ends, parents = spans
    rows = [[names[n], s, e, p] for n, s, e, p in zip(name_ids, starts, ends, parents)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)


def _resolve(module, attr: str):
    """(owner, attribute name) for ``attr``, which may be ``Class.method``."""
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(tracer: Tracer, tl) -> callable:
    """Wrap timeloc's entry points; returns a function that undoes it."""
    modules = [m for m in vars(tl).values() if getattr(m, "__name__", "").startswith("timeloc")]
    undo = []

    def replace(module_name: str, attr: str, wrapper_for) -> None:
        owner, last = _resolve(getattr(tl, module_name), attr)
        original = getattr(owner, last)
        wrapper = wrapper_for(original)
        targets = [(owner, last)]
        if "." not in attr:  # also every module that imported it by name
            targets += [
                (m, k) for m in modules if m is not owner
                for k, v in vars(m).items() if v is original
            ]
        for target, key in targets:
            undo.append((target, key, original))
            setattr(target, key, wrapper)

    for layer, module_name, attr, metric in SPANS:
        name = f"{module_name}.{attr}"
        after = Tracer._AFTER.get(name)
        bound_after = None if after is None else functools.partial(after, tracer)
        replace(
            module_name, attr,
            lambda fn, n=name, mt=f"{layer}.{metric}", a=bound_after: tracer.span(n, mt, fn, a),
        )
    for module_name, attr in COUNTED:
        after = functools.partial(Tracer._AFTER[f"{module_name}.{attr}"], tracer)
        replace(module_name, attr, lambda fn, a=after: tracer.counted(fn, a))

    def uninstall() -> None:
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall
