import io
import math
import random
from datetime import date

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timeloc.errors import OrderingError, TraceParseError, TraceValidationError
from timeloc.trace_model import (
    AccelSample,
    ApObservation,
    Bssid,
    GpsFix,
    ScanRecord,
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
        assert Bssid("aa:bb:cc:dd:ee:ff").value == "aa:bb:cc:dd:ee:ff"

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
        assert type(b.value) is str and b.value == "aa:00:00:00:00:01"
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
        assert b == canon and b.value == canon and hash(b) == hash(canon)

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

    def test_accel_assigned_to_slices(self):
        acc = [AccelSample(self._at(13), 9.8), AccelSample(self._at(37), 9.8)]
        days = slice_into_days([], acc)
        assert [len(d.accel) for d in days] == [1, 1]


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


def test_day_id_for_ts_matches_slice_start():
    assert day_id_for_ts(SLICE) == DAY
    assert day_id_for_ts(SLICE + 86_399) == DAY
    assert day_id_for_ts(SLICE - 1) == date(2023, 12, 31)
