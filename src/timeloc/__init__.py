"""timeloc: arrival-time localization from WiFi scan traces.

Mines a user's home AP from nightly dwell, labels route APs with
seconds-to-home under a seven-day sliding window, predicts arrival from a
single lost BSSID in two map probes, detects door-opening events, and
duty-cycles sensing through a geofence-aware state machine.  A deterministic
commute simulator and an evaluation harness (including a nearest-neighbor
baseline) round out the package.
"""

from .errors import (
    ColdStart,
    ConfigurationError,
    InsufficientHistory,
    NoArrival,
    NoHistory,
    NoNightData,
    OrderingError,
    ProfileFormatError,
    TimelocError,
    TraceParseError,
    TraceValidationError,
    UnknownBssid,
)
from .trace_model import (
    AccelSample,
    ApObservation,
    Bssid,
    DayTrace,
    GpsFix,
    ScanRecord,
    haversine_m,
    parse_accel_file,
    parse_trace_file,
    serialize_accel_samples,
    serialize_scan_records,
    slice_into_days,
)
from .home_mining import HomeVote, nightly_dwell, vote_home_ap
from .time_map import (
    ApLabel,
    DayMap,
    Prediction,
    UserProfile,
    build_day_map,
    predict_tl,
    update_profile,
)
from .door_detect import DoorEvent, detect_door_events
from .sensing_fsm import FsmState, SensingStats, fsm_step, in_gps_region, run_fsm_day
from .nn_baseline import HistoryPoint, NnHistory, filter_env, nn_predict
from .simulator import (
    ApPlacement,
    DayOracle,
    GroundTruth,
    RouteSpec,
    ScenarioSpec,
    TransportMode,
    synth_dataset,
)
from .eval_harness import EvalDataset, EvalReport, cdf, evaluate, sweep_rssi_filter

__version__ = "0.1.0"
