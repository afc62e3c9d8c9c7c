import io
import json
import math
import random
from datetime import date

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloc.errors import OrderingError, TraceParseError, TraceValidationError
from timeloc.trace_model import (
    DAY_S,
    NOON_SOD,
    AccelSample,
    ApObservation,
    Bssid,
    GpsFix,
    ScanRecord,
    _json_float,
    day_id_for_ts,
    day_slice_start,
    filter_trace,
    haversine_m,
    parse_accel_file,
    parse_trace_file,
    serialize_accel_samples,
    serialize_scan_records,
    slice_into_days,
)
from util import B, DAY, SLICE, bss, scan, trace


class TestBssid:
    def test_canonical_form_is_kept(self):
        assert str(Bssid("aa:bb:cc:dd:ee:ff")) == "aa:bb:cc:dd:ee:ff"

    def test_uppercase_and_hyphens_normalize(self):
        assert Bssid("AA-BB-CC-DD-EE-FF") == Bssid("aa:bb:cc:dd:ee:ff")

    @pytest.mark.parametrize(
        "bad", ["aa:bb:cc:dd:ee", "aa:bb:cc:dd:ee:ff:00", "zz:bb:cc:dd:ee:ff", "aabbccddeeff", ""]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(TraceValidationError):
            Bssid(bad)

    def test_usable_as_map_key(self):
        d = {Bssid("AA:00:00:00:00:01"): 1}
        assert d[Bssid("aa:00:00:00:00:01")] == 1

    def test_existing_bssid_is_returned_unchanged(self):
        b = Bssid("AA:00:00:00:00:01")
        assert Bssid(b) is b

    def test_value_repr_and_str(self):
        b = Bssid("AA-00-00-00-00-01")
        assert type(str(b)) is str and str(b) == "aa:00:00:00:00:01"
        assert str(b) == f"{b}" == "aa:00:00:00:00:01"
        assert repr(b) == "Bssid('aa:00:00:00:00:01')"

    def test_non_string_rejected_with_message(self):
        with pytest.raises(TraceValidationError, match="invalid BSSID: 5"):
            Bssid(5)

    def test_pickle_keeps_type_and_value(self):
        b = Bssid("aa:00:00:00:00:01")
        back = pickle.loads(pickle.dumps(b))
        assert type(back) is Bssid and back == b


# A BSSID spelled six octets of random case, joined by ':' or '-', plus the
# canonical form it must reduce to.
_octets = st.lists(st.integers(0, 255), min_size=6, max_size=6)


@st.composite
def spelled_bssids(draw):
    octets = draw(_octets)
    sep = draw(st.sampled_from([":", "-"]))
    upper = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    parts = [f"{o:02X}" if u else f"{o:02x}" for o, u in zip(octets, upper)]
    return sep.join(parts), ":".join(f"{o:02x}" for o in octets)


class TestBssidProperties:
    @given(spelled_bssids())
    def test_is_its_canonical_string(self, spelled):
        raw, canon = spelled
        b = Bssid(raw)
        assert b == canon and str(b) == canon and hash(b) == hash(canon)

    @given(spelled_bssids(), spelled_bssids())
    def test_equality_hash_and_order_follow_canonical_form(self, x, y):
        a, b = Bssid(x[0]), Bssid(y[0])
        assert (a == b) == (x[1] == y[1])
        if a == b:
            assert hash(a) == hash(b)
        assert (a < b) == (x[1] < y[1])
        assert (a <= b) == (x[1] <= y[1])

    @given(st.lists(spelled_bssids(), min_size=1, max_size=8, unique_by=lambda s: s[1]))
    def test_serialize_parse_round_trip(self, spelled):
        aps = tuple(ApObservation(Bssid(raw), -50) for raw, _ in spelled)
        record = ScanRecord(ts=SLICE, gps=None, connected=aps[0].bssid, aps=aps)
        (back,) = parse_trace_file(serialize_scan_records([record]))
        assert back == record
        assert [o.bssid for o in back.aps] == [canon for _, canon in spelled]
        assert all(type(o.bssid) is Bssid for o in back.aps)


class TestRecordInvariants:
    def test_rssi_bounds(self):
        with pytest.raises(TraceValidationError):
            ApObservation(bss(1), -130)
        with pytest.raises(TraceValidationError):
            ApObservation(bss(1), 1)

    def test_gps_bounds(self):
        with pytest.raises(TraceValidationError):
            GpsFix(91.0, 0.0)
        with pytest.raises(TraceValidationError):
            GpsFix(0.0, 181.0)

    def test_negative_accel_magnitude_rejected(self):
        with pytest.raises(TraceValidationError):
            AccelSample(0, -1.0)

    def test_duplicate_bssid_in_scan_rejected(self):
        aps = (ApObservation(bss(1), -50), ApObservation(bss(1), -60))
        with pytest.raises(TraceValidationError):
            ScanRecord(ts=0, gps=None, connected=None, aps=aps)

    def test_connected_must_be_scanned(self):
        with pytest.raises(TraceValidationError):
            ScanRecord(ts=0, gps=None, connected=bss(2), aps=(ApObservation(bss(1), -50),))


class TestRecordedScan:
    APS = (ApObservation(bss(1), -50), ApObservation(bss(2), -60))

    def test_keeps_a_listed_connection(self):
        r = ScanRecord.recorded(7, GpsFix(1.0, 2.0), bss(2), self.APS)
        assert r == ScanRecord(ts=7, gps=GpsFix(1.0, 2.0), connected=bss(2), aps=self.APS)

    def test_drops_an_unlisted_connection(self):
        assert ScanRecord.recorded(7, None, bss(3), self.APS).connected is None
        assert ScanRecord.recorded(7, None, bss(1), ()).connected is None

    def test_keeps_no_connection(self):
        assert ScanRecord.recorded(7, None, None, self.APS) == ScanRecord(7, None, None, self.APS)

    def test_parsing_stays_strict(self):
        line = b'{"ts":1,"gps":null,"conn":"02:00:00:00:00:03","aps":[{"bssid":"02:00:00:00:00:01","rssi":-40}]}'
        with pytest.raises(TraceValidationError, match="line 1: connected BSSID"):
            parse_trace_file(line)


# stamps at and next to both ends of the slice of DAY, and anywhere near it
_slice_stamps = st.lists(
    st.one_of(
        st.sampled_from([SLICE - 1, SLICE, SLICE + 1, SLICE + DAY_S - 1, SLICE + DAY_S]),
        st.integers(SLICE - 5, SLICE + DAY_S + 5),
    ),
    max_size=6,
)


def _reference_day_trace_error(scan_stamps, accel_stamps):
    """The error a DayTrace of DAY raises: scans first, order before slice."""
    for stamps in (scan_stamps, accel_stamps):
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            return OrderingError
        if any(not SLICE <= ts < SLICE + DAY_S for ts in stamps):
            return TraceValidationError
    return None


class TestDayTraceInvariants:
    @settings(max_examples=300)
    @given(_slice_stamps, _slice_stamps)
    def test_refuses_unordered_or_outside_items(self, scan_stamps, accel_stamps):
        scans = [scan(ts, {}) for ts in scan_stamps]
        samples = [AccelSample(ts, 9.8) for ts in accel_stamps]
        expected = _reference_day_trace_error(scan_stamps, accel_stamps)
        if expected is None:
            assert trace(scans, samples).scans == tuple(scans)
        else:
            with pytest.raises(expected):
                trace(scans, samples)

    def test_names_the_item_that_breaks_the_order(self):
        with pytest.raises(OrderingError, match=f"^accel samples not sorted by ts \\(around {SLICE}\\)$"):
            trace([], [AccelSample(SLICE + 1, 9.8), AccelSample(SLICE, 9.8)])


class TestParseTraceFile:
    def test_empty_stream(self):
        assert parse_trace_file(b"") == []

    def test_single_line_two_aps(self):
        line = (
            b'{"ts":100,"gps":{"lat":10.0,"lon":20.0},"conn":"aa:00:00:00:00:01",'
            b'"aps":[{"bssid":"aa:00:00:00:00:01","rssi":-40},'
            b'{"bssid":"aa:00:00:00:00:02","rssi":-70}]}\n'
        )
        records = parse_trace_file(line)
        assert len(records) == 1
        assert len(records[0].aps) == 2
        assert records[0].connected == B("aa:00:00:00:00:01")
        assert records[0].gps == GpsFix(10.0, 20.0)

    def test_out_of_range_rssi_is_validation_error_with_line(self):
        line = b'{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"aa:00:00:00:00:01","rssi":-130}]}'
        with pytest.raises(TraceValidationError, match="line 1"):
            parse_trace_file(line)

    def test_infinite_timestamp_is_a_malformed_record_with_line(self):
        data = b'{"ts":1,"gps":null,"conn":null,"aps":[]}\n{"ts":Infinity,"gps":null,"conn":null,"aps":[]}\n'
        with pytest.raises(TraceParseError, match=r"^line 2: malformed record \(cannot convert"):
            parse_trace_file(data)

    def test_malformed_json_reports_line_number(self):
        data = b'{"ts":1,"gps":null,"conn":null,"aps":[]}\nnot json\n'
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace_file(data)

    def test_repeated_bssid_strings_share_one_object(self):
        data = (
            b'{"ts":1,"gps":null,"conn":"AA:00:00:00:00:01","aps":[{"bssid":"AA:00:00:00:00:01","rssi":-40}]}\n'
            b'{"ts":2,"gps":null,"conn":null,"aps":[{"bssid":"AA:00:00:00:00:01","rssi":-41}]}\n'
        )
        first, second = parse_trace_file(data)
        assert first.connected is first.aps[0].bssid is second.aps[0].bssid

    def test_invalid_bssid_reports_its_line_every_time(self):
        good = b'{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"aa:00:00:00:00:01","rssi":-40}]}\n'
        bad = b'{"ts":2,"gps":null,"conn":null,"aps":[{"bssid":"not-a-bssid","rssi":-40}]}\n'
        for data, line in ((bad, 1), (good + bad, 2), (good + good + bad, 3)):
            with pytest.raises(TraceValidationError, match=f"line {line}: invalid BSSID"):
                parse_trace_file(data)

    def test_non_string_bssid_is_an_error_with_line(self):
        number = b'{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":7,"rssi":-40}]}\n'
        with pytest.raises(TraceValidationError, match="line 1"):
            parse_trace_file(number)
        listed = b'{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":[1],"rssi":-40}]}\n'
        with pytest.raises(TraceParseError, match="line 1"):
            parse_trace_file(listed)

    def test_accepts_file_object(self):
        data = b'{"ts":5,"gps":null,"conn":null,"aps":[]}\n'
        assert parse_trace_file(io.BytesIO(data))[0].ts == 5

    def test_round_trip(self):
        records = [
            scan(SLICE + 10, {bss(1): -40, bss(2): -71}, gps=GpsFix(1.5, 2.5), conn=bss(1)),
            scan(SLICE + 20, {}),
            scan(SLICE + 30, {bss(3): -90}),
        ]
        data = serialize_scan_records(records)
        assert parse_trace_file(data) == records
        # byte-identical once canonical
        assert serialize_scan_records(parse_trace_file(data)) == data

    def test_accel_round_trip(self):
        samples = [AccelSample(SLICE, 9.81), AccelSample(SLICE + 1, 10.23)]
        data = serialize_accel_samples(samples)
        assert parse_accel_file(data) == samples


class TestParseAccelFile:
    def test_invalid_json_reports_line_number(self):
        data = b'{"ts":1,"mag":9.8}\n{"ts":2,\n'
        with pytest.raises(TraceParseError, match=r"^line 2: invalid JSON \("):
            parse_accel_file(data)

    def test_missing_magnitude_is_malformed_sample(self):
        data = b'{"ts":1,"mag":9.8}\n\n{"ts":3}\n'
        with pytest.raises(TraceParseError, match=r"^line 3: malformed sample \('mag'\)$"):
            parse_accel_file(data)

    def test_negative_magnitude_is_validation_error_with_line(self):
        data = b'{"ts":1,"mag":9.8}\n{"ts":2,"mag":-0.5}\n'
        with pytest.raises(
            TraceValidationError, match=r"^line 2: accelerometer magnitude must be >= 0$"
        ):
            parse_accel_file(data)

    @pytest.mark.parametrize("mag", [b"NaN", b"Infinity", b"1e400"])
    def test_non_finite_magnitude_is_validation_error_with_line(self, mag):
        data = b'{"ts":1,"mag":9.8}\n{"ts":2,"mag":%s}\n' % mag
        with pytest.raises(
            TraceValidationError, match=r"^line 2: accelerometer magnitude must be finite$"
        ):
            parse_accel_file(data)

    @pytest.mark.parametrize(
        "data",
        [b'{"ts":1,"mag":1%s}\n' % (b"0" * 400), b'{"ts":Infinity,"mag":9.8}\n'],
        ids=["integer-past-the-float-range", "infinite-ts"],
    )
    def test_an_overflowing_number_is_a_malformed_sample(self, data):
        with pytest.raises(TraceParseError, match=r"^line 1: malformed sample \("):
            parse_accel_file(data)


def reference_parse_trace(data: bytes) -> list[ScanRecord]:
    """The trace reader without observation interning or the C scanner:
    ``json.loads`` per line, a fresh ApObservation per sighting, and the
    scan's duplicate and connection checks as one walk over its AP list.
    BSSID strings go through a per-call dict, as they did before."""
    seen_bssids: dict = {}

    def bssid(raw) -> Bssid:
        if raw not in seen_bssids:  # TypeError for an unhashable value
            seen_bssids[raw] = Bssid(raw)
        return seen_bssids[raw]

    records = []
    for lineno, line in enumerate(data.decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            ts = int(obj["ts"])
            gps_obj = obj.get("gps")
            gps = None if gps_obj is None else GpsFix(float(gps_obj["lat"]), float(gps_obj["lon"]))
            conn = None if obj.get("conn") is None else bssid(obj["conn"])
            aps = tuple(ApObservation(bssid(e["bssid"]), int(e["rssi"])) for e in obj["aps"])
            seen = set()
            for o in aps:
                if o.bssid in seen:
                    raise TraceValidationError(f"duplicate BSSID {o.bssid} at ts {ts}")
                seen.add(o.bssid)
            if conn is not None and conn not in seen:
                raise TraceValidationError(
                    f"connected BSSID {conn} not among scanned APs at ts {ts}"
                )
            records.append(ScanRecord(ts=ts, gps=gps, connected=conn, aps=aps))
        except TraceValidationError as exc:
            raise TraceValidationError(f"line {lineno}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(f"line {lineno}: malformed record ({exc})") from exc
    return records


def _outcome(parse, data: bytes):
    """The records, or the error as (type, message)."""
    try:
        return parse(data)
    except (TraceParseError, TraceValidationError) as exc:
        return type(exc), str(exc)


# Few distinct raw values, so (bssid, rssi) pairs repeat within a file.
# Every value here is accepted; the faults below are rarer, so many files
# parse through and the interned values are compared too.
_RAW_BSSIDS = ["02:00:00:00:00:01", "02:00:00:00:00:02", "02-00-00-00-00-0A", "02:00:00:00:00:0a"]
_RAW_RSSI = [-40, -71, -120, 0, -40.5, "-55"]
_LINE_FAULTS = {
    "rssi": lambda draw, obj: obj["aps"].append(
        {"bssid": draw(st.sampled_from(_RAW_BSSIDS)), "rssi": draw(st.sampled_from([-130, 1, True, None, [1]]))}
    ),
    "bssid": lambda draw, obj: obj["aps"].append(
        {"bssid": draw(st.sampled_from(["not-a-bssid", 7, [7]])), "rssi": -40}
    ),
    "duplicate": lambda draw, obj: obj["aps"].extend(obj["aps"][:1]),
    "entry": lambda draw, obj: obj["aps"].append(
        draw(st.sampled_from([{"bssid": "02:00:00:00:00:01"}, {"rssi": -40}, "ap", [1, 2]]))
    ),
    "conn": lambda draw, obj: obj.update(conn="02:00:00:00:00:ff"),
    "gps": lambda draw, obj: obj.update(gps={"lat": 91, "lon": 0}),
}
_WRAPPERS = {
    # JSON whitespace (a lone CR also ends a line), a BOM, trailing data
    "prefix": lambda draw, text: draw(st.sampled_from([" ", "\t", "\r", "\ufeff"])) + text,
    "suffix": lambda draw, text: text + draw(st.sampled_from([" ", "\t ", "\r", "x", "}", " 1", "{}"])),
    "cut": lambda draw, text: text[: draw(st.integers(0, len(text) - 1))],
}


@st.composite
def jsonl_lines(draw):
    entries = draw(
        st.lists(
            st.fixed_dictionaries(
                {"bssid": st.sampled_from(_RAW_BSSIDS), "rssi": st.sampled_from(_RAW_RSSI)}
            ),
            max_size=3,
            unique_by=lambda e: e["bssid"].lower().replace("-", ":"),
        )
    )
    obj = {
        "ts": draw(st.integers(-(2**33), 2**33)),
        "gps": draw(st.none() | st.just({"lat": 39.9, "lon": 116.3})),
        "conn": draw(st.none() | st.sampled_from([e["bssid"] for e in entries])) if entries else None,
        "aps": entries,
    }
    kind = draw(st.sampled_from([None] * 24 + sorted(_LINE_FAULTS) + sorted(_WRAPPERS)))
    if kind in _LINE_FAULTS:
        _LINE_FAULTS[kind](draw, obj)
    text = json.dumps(obj, separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    return _WRAPPERS[kind](draw, text) if kind in _WRAPPERS else text


class TestReaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(jsonl_lines(), max_size=8))
    def test_same_records_or_same_error(self, lines):
        data = "\n".join(lines).encode("utf-8")
        assert _outcome(parse_trace_file, data) == _outcome(reference_parse_trace, data)

    @pytest.mark.parametrize(
        "line",
        [
            '  {"ts":1,"gps":null,"conn":null,"aps":[]}\t',
            '\ufeff{"ts":1,"gps":null,"conn":null,"aps":[]}',
            '{"ts":1,"gps":null,"conn":null,"aps":[]} x',
            '{"ts":1,"gps":null,"conn":null,"aps":[]}{}',
            '{"ts":1,"gps":null,"conn":null,"aps":[',
            '{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":-130}]}',
            '{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":-40},'
            '{"bssid":"02-00-00-00-00-01","rssi":-50}]}',
            '{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"bad","rssi":[1]}]}',
            '{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":[1]}]}',
            '{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"bad"}]}',
        ],
        ids=["whitespace", "bom", "extra", "second-value", "cut", "rssi-range",
             "duplicate", "bad-bssid-list-rssi", "list-rssi", "bad-bssid-no-rssi"],
    )
    def test_line_kinds(self, line):
        good = '{"ts":0,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":-130}]}'
        for data in (line, good.replace("-130", "-40") + "\n" + line):
            data = data.encode("utf-8")
            assert _outcome(parse_trace_file, data) == _outcome(reference_parse_trace, data)

    def test_out_of_range_pair_raises_on_every_line(self):
        good = b'{"ts":1,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":-40}]}\n'
        bad = b'{"ts":2,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":-130}]}\n'
        for data, line in ((bad, 1), (good + bad, 2), (good + good + bad, 3)):
            with pytest.raises(TraceValidationError, match=f"^line {line}: rssi -130 dBm outside"):
                parse_trace_file(data)

    def test_equal_observations_are_shared_within_one_parse(self):
        line = b'{"ts":%d,"gps":null,"conn":null,"aps":[{"bssid":"02:00:00:00:00:01","rssi":-40}]}\n'
        data = line % 1 + line % 2
        first, second = parse_trace_file(data)
        assert first.aps[0] is second.aps[0]
        (again,) = parse_trace_file(line % 3)
        assert again.aps[0] == first.aps[0] and again.aps[0] is not first.aps[0]


_finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def scan_records(
    draw,
    lat=st.floats(-90, 90, **_finite),
    lon=st.floats(-180, 180, **_finite),
):
    octets = draw(st.lists(st.integers(0, 2**48 - 1), max_size=6, unique=True))
    bssids = [Bssid(":".join(f"{o:012x}"[i : i + 2] for i in range(0, 12, 2))) for o in octets]
    aps = tuple(ApObservation(b, draw(st.integers(-120, 0))) for b in bssids)
    gps = draw(st.none() | st.builds(GpsFix, lat, lon))
    connected = draw(st.none() | st.sampled_from(bssids)) if bssids else None
    return ScanRecord(ts=draw(st.integers(0, 2**40)), gps=gps, connected=connected, aps=aps)


class TestJsonlRoundTripProperties:
    @given(st.lists(scan_records(), max_size=5))
    def test_scan_records(self, records):
        assert parse_trace_file(serialize_scan_records(records)) == records

    @given(
        st.lists(
            st.builds(AccelSample, st.integers(0, 2**40), st.floats(min_value=0, **_finite)),
            max_size=5,
        )
    )
    def test_accel_samples(self, samples):
        assert parse_accel_file(serialize_accel_samples(samples)) == samples


def reference_serialize_scan_records(records) -> bytes:
    """The scan writer as ``json.dumps`` of one object per line."""
    lines = []
    for r in records:
        obj = {
            "ts": r.ts,
            "gps": None if r.gps is None else {"lat": r.gps.lat_deg, "lon": r.gps.lon_deg},
            "conn": None if r.connected is None else str(r.connected),
            "aps": [{"bssid": str(o.bssid), "rssi": o.rssi_dbm} for o in r.aps],
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def reference_serialize_accel_samples(samples) -> bytes:
    """The accel writer as ``json.dumps`` of one object per line."""
    lines = [
        json.dumps({"ts": a.ts, "mag": a.magnitude_mps2}, separators=(",", ":"))
        for a in samples
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


# -0.0 and integer-valued coordinates, as floats and as ints
_lats = st.floats(-90, 90, **_finite) | st.sampled_from([-0.0, 0, 45, -90, 90, 45.0])
_lons = st.floats(-180, 180, **_finite) | st.sampled_from([-0.0, 0, -122, 180, -180.0])
# An AccelSample holds no NaN or infinite magnitude.
_magnitudes = st.one_of(
    st.floats(min_value=0, **_finite),
    st.sampled_from([-0.0, 0.0, 9.81, 1e16, 1.5e-7]),
    st.integers(0, 100),
)
_accel = st.lists(st.builds(AccelSample, st.integers(0, 2**40), _magnitudes), max_size=6)


@st.composite
def odd_bssid_records(draw):
    """A record whose BSSIDs are arbitrary strings, which need escaping."""
    names = draw(st.lists(st.text(max_size=6), max_size=4, unique=True))
    aps = tuple(ApObservation(b, draw(st.integers(-120, 0))) for b in names)
    connected = draw(st.none() | st.sampled_from(names)) if names else None
    return ScanRecord(draw(st.integers(0, 2**40)), None, connected, aps)


class TestWritersMatchJsonDumps:
    def test_empty_input_is_empty_bytes(self):
        assert serialize_scan_records([]) == b""
        assert serialize_accel_samples(iter(())) == b""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(scan_records(_lats, _lons) | odd_bssid_records(), max_size=5))
    def test_scan_records(self, records):
        assert serialize_scan_records(records) == reference_serialize_scan_records(records)

    @given(st.floats() | st.integers(-(10**20), 10**20))
    @example(-math.inf)
    def test_numbers(self, x):
        """Any int or float, -Infinity too, though no trace value can be -Infinity."""
        assert _json_float(x) == json.dumps(x)

    @settings(max_examples=300, deadline=None)
    @given(_accel)
    def test_accel_samples(self, samples):
        """-0.0 and large magnitudes come out as the encoder writes them."""
        assert serialize_accel_samples(samples) == reference_serialize_accel_samples(samples)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(scan_records(), max_size=5), _accel)
    def test_parse_then_serialize_gives_the_same_bytes(self, records, samples):
        data = serialize_scan_records(records)
        assert serialize_scan_records(parse_trace_file(data)) == data
        # the reader reads every magnitude as a float, so write floats
        samples = [AccelSample(a.ts, float(a.magnitude_mps2)) for a in samples]
        data = serialize_accel_samples(samples)
        assert serialize_accel_samples(parse_accel_file(data)) == data


class TestSliceIntoDays:
    def _at(self, day_offset_h):
        # hours relative to 2024-01-01 00:00 UTC
        base = SLICE - 43_200
        return int(base + day_offset_h * 3600)

    def test_afternoon_and_evening_share_a_slice(self):
        records = [scan(self._at(13), {bss(1): -50}), scan(self._at(23), {bss(1): -50})]
        assert len(slice_into_days(records)) == 1

    def test_night_is_contiguous_across_midnight(self):
        records = [scan(self._at(23), {bss(1): -50}), scan(self._at(26), {bss(1): -50})]
        days = slice_into_days(records)
        assert len(days) == 1
        assert days[0].day_id == DAY

    def test_noon_boundary_splits(self):
        records = [scan(self._at(11), {bss(1): -50}), scan(self._at(13), {bss(1): -50})]
        assert len(slice_into_days(records)) == 2

    def test_unsorted_input_rejected(self):
        records = [scan(self._at(13), {}), scan(self._at(12.5), {})]
        with pytest.raises(OrderingError):
            slice_into_days(records)

    @pytest.mark.parametrize("ts", [-100_000_000_000_000, -62_135_596_801, 253_402_387_200, 10**17])
    def test_a_record_outside_the_supported_dates_is_named(self, ts):
        records = sorted([scan(SLICE, {}), scan(ts, {})], key=lambda r: r.ts)
        with pytest.raises(TraceValidationError, match=f"^timestamp {ts} falls outside the supported dates$"):
            slice_into_days(records)

    def test_partition_property(self):
        rng = random.Random(7)
        records = sorted(
            (scan(self._at(rng.uniform(0, 24 * 5)), {bss(rng.randint(0, 3)): -60}) for _ in range(300)),
            key=lambda r: r.ts,
        )
        days = slice_into_days(records)
        flattened = [s for d in days for s in d.scans]
        assert sorted(flattened, key=lambda r: r.ts) == records
        assert sum(len(d.scans) for d in days) == len(records)
        for d in days:
            start = day_slice_start(d.day_id)
            assert all(start <= s.ts < start + 86_400 for s in d.scans)

    def test_labels_at_slice_boundaries_and_before_the_epoch(self):
        stamps = sorted(
            k * DAY_S + NOON_SOD + off
            for k in (-3, -1, 0, 1, 19_723)
            for off in (-1, 0, 1, DAY_S - 1)
        )
        days = slice_into_days([scan(ts, {}) for ts in stamps], [AccelSample(ts, 9.8) for ts in stamps])
        for d in days:
            assert [day_id_for_ts(s.ts) for s in d.scans] == [d.day_id] * len(d.scans)
            assert [day_id_for_ts(a.ts) for a in d.accel] == [d.day_id] * len(d.accel)
        assert [s.ts for d in days for s in d.scans] == stamps
        assert days[0].day_id == date(1969, 12, 28)  # the slice before k = -3

    def test_accel_assigned_to_slices(self):
        """Samples join the day of their slice; a slice without scans is no
        day, and its samples are dropped."""
        acc = [AccelSample(self._at(h), 9.8) for h in (13, 14, 37, 61)]
        days = slice_into_days([scan(self._at(14), {}), scan(self._at(62), {})], acc)
        assert [[a.ts for a in d.accel] for d in days] == [[acc[0].ts, acc[1].ts], [acc[3].ts]]
        assert slice_into_days([], acc) == []


class TestHaversine:
    def test_identity(self):
        p = GpsFix(12.34, 56.78)
        assert haversine_m(p, p) == 0.0

    def test_small_latitude_step(self):
        # independent evaluation: d = R * dphi for a pure latitude move
        expected = 6_371_000.0 * math.radians(0.01)
        got = haversine_m(GpsFix(0.0, 0.0), GpsFix(0.01, 0.0))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(1111.9492, abs=1e-3)

    def test_antipodal(self):
        got = haversine_m(GpsFix(0.0, 0.0), GpsFix(0.0, 180.0))
        assert got == pytest.approx(math.pi * 6_371_000.0, rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(11)
        for _ in range(200):
            pts = [GpsFix(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
            a, b, c = pts
            assert haversine_m(a, b) == pytest.approx(haversine_m(b, a), rel=1e-12)
            ab, bc, ac = haversine_m(a, b), haversine_m(b, c), haversine_m(a, c)
            assert ac <= ab + bc + 1e-6 * max(1.0, ac)


class TestFilterTrace:
    def test_drops_weak_observations_and_orphans_connection(self):
        t = trace([scan(SLICE, {bss(1): -80, bss(2): -50}, conn=bss(1))])
        out = filter_trace(t, -70)
        assert out.scans[0].bssids() == {bss(2)}
        assert out.scans[0].connected is None

    def test_none_threshold_keeps_everything(self):
        t = trace([scan(SLICE, {bss(1): -80})])
        assert filter_trace(t, None) is t

    @given(st.lists(scan_records(), max_size=6), st.integers(-121, 1))
    def test_filtered_trace_is_a_sub_view(self, records, level):
        records = [
            ScanRecord(SLICE + i, r.gps, r.connected, r.aps) for i, r in enumerate(records)
        ]
        t = trace(records)
        assert filter_trace(t, None) is t
        out = filter_trace(t, level)
        assert out.day_id == t.day_id and out.accel is t.accel
        assert [s.ts for s in out.scans] == [s.ts for s in t.scans]
        for before, after in zip(t.scans, out.scans):
            assert after.aps == tuple(o for o in before.aps if o.rssi_dbm >= level)
            assert after.gps == before.gps
            dropped = before.bssids() - after.bssids()
            assert after.connected == (None if before.connected in dropped else before.connected)
            if not dropped:
                assert after is before


def test_day_id_for_ts_matches_slice_start():
    assert day_id_for_ts(SLICE) == DAY
    assert day_id_for_ts(SLICE + 86_399) == DAY
    assert day_id_for_ts(SLICE - 1) == date(2023, 12, 31)
