"""Shared builders and independent oracle implementations for the tests.

Oracles here are deliberately naive (direct formulas, brute-force scans,
exhaustive enumeration) and share no code with the library paths they
check.
"""

from __future__ import annotations

import math

import numpy as np

from musicking_lab.model import Keypoint, Record, Session


def kp(x: float, y: float, confidence: float = 0.9) -> Keypoint:
    return Keypoint(x=x, y=y, confidence=confidence)


def sentinel_kp() -> Keypoint:
    return Keypoint(x=-1.0, y=-1.0, confidence=0.0)


def make_record(position: float, **kwargs) -> Record:
    return Record(backing_track_position=float(position), **kwargs)


def session_of(positions, *, session_id="s", eda=None, flow=None, chorus=None,
               delta=None, eeg=None, keypoints=None) -> Session:
    """Build a Session from parallel per-record value lists (None = absent)."""
    n = len(positions)

    def pick(values, i):
        return None if values is None else values[i]

    records = []
    for i, pos in enumerate(positions):
        eeg_i = pick(eeg, i)
        records.append(Record(
            backing_track_position=float(pos),
            sync_delta=pick(delta, i),
            chorus_id=pick(chorus, i),
            flow=pick(flow, i),
            eda=pick(eda, i),
            eeg_t3=None if eeg_i is None else eeg_i[0],
            eeg_t4=None if eeg_i is None else eeg_i[1],
            eeg_o1=None if eeg_i is None else eeg_i[2],
            eeg_o2=None if eeg_i is None else eeg_i[3],
            keypoints=pick(keypoints, i) or {},
        ))
    return Session(session_id=session_id, records=tuple(records))


def performance_session(grid, seed=0, session_id=None, interval_ms=130.0,
                        eda_levels=(200.0, 500.0, 800.0), eda_noise=(2.0, 6.0, 12.0),
                        pre_count=20, tail_count=59) -> Session:
    """Synthetic full-track session: chorus 0 lead-in, five playthroughs
    covering all bars, chorus 999 tail running past the track end.

    EDA level and jitter both switch per 27-bar block, so every per-bar
    feature (mean, spread, extremes) carries the same unambiguous k = 3
    regime structure.
    """
    rng = np.random.default_rng(seed)
    if session_id is None:
        session_id = f"synth{seed:04d}"
    if isinstance(eda_noise, (int, float)):
        eda_noise = (float(eda_noise),) * len(eda_levels)
    duration_ms = grid.duration_s * 1000.0
    bar_starts_ms = [t * 1000.0 for t in grid.bar_times]

    def bar_of(t_ms: float) -> int:
        i = 0
        for b, start in enumerate(bar_starts_ms):
            if t_ms >= start:
                i = b
        return i

    records = []
    start_ms = 2600.0
    pre_positions = np.linspace(0.0, start_ms - 50.0, pre_count)
    positions = np.arange(start_ms, duration_ms, interval_ms)
    tail_positions = duration_ms + 40.0 + interval_ms * np.arange(tail_count)
    n_perf = len(positions)

    def build(pos, chorus, k):
        bar = bar_of(pos) if pos <= duration_ms else 80
        regime = min(bar // 27, len(eda_levels) - 1)
        eda = max(0, round(eda_levels[regime] + rng.normal(0.0, eda_noise[regime])))
        shared = 50000.0 + 20000.0 * math.sin(2.0 * math.pi * pos / 60000.0)
        eeg = [max(0, round(shared * (1.0 + rng.normal(0.0, 0.02)))) for _ in range(4)]
        flow = 37 + round(31 * k / max(1, n_perf - 1)) if chorus not in (0, 999) else 40
        wander = rng.normal(0.0, 2.0, size=2)
        keypoints = {
            "nose": kp(245.0 + wander[0], 123.0 + wander[1], 0.92),
            "neck": kp(250.0 + wander[0], 180.0 + wander[1], 0.88),
            "l_wrist": kp(300.0 + 30.0 * math.sin(pos / 5000.0), 260.0, 0.8),
            "r_wrist": (sentinel_kp() if rng.random() < 0.1
                        else kp(190.0 + 25.0 * math.cos(pos / 4000.0), 255.0, 0.75)),
            "l_ear": kp(230.0, 110.0, 0.3 if rng.random() < 0.2 else 0.7),
        }
        return Record(
            backing_track_position=float(pos),
            sync_delta=None if not records else float(pos) - records[-1].backing_track_position,
            chorus_id=chorus,
            flow=None if (chorus not in (0, 999) and k % 997 == 3) else flow,
            eda=eda,
            eeg_t3=eeg[0], eeg_t4=eeg[1], eeg_o1=eeg[2], eeg_o2=eeg[3],
            keypoints=keypoints,
        )

    for pos in pre_positions:
        records.append(build(float(pos), 0, 0))
    for k, pos in enumerate(positions):
        chorus = min(5, bar_of(float(pos)) // 16 + 1)
        records.append(build(float(pos), chorus, k))
    for pos in tail_positions:
        records.append(build(float(pos), 999, 0))
    return Session(session_id=session_id, records=tuple(records))


# -- independent oracles -----------------------------------------------------

def oracle_quantile(values, q: float) -> float:
    """Linear-interpolation quantile, written from the definition."""
    v = sorted(values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def oracle_mean_std(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var)


def oracle_pearson(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


def oracle_ranks(values) -> list[float]:
    """Average ranks with a quadratic scan, nothing shared with the library."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def oracle_anova_f(groups) -> tuple[float, int, int]:
    k = len(groups)
    all_values = [x for g in groups for x in g]
    n = len(all_values)
    grand = sum(all_values) / n
    ssb = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ssw = sum(sum((x - sum(g) / len(g)) ** 2 for x in g) for g in groups)
    return (ssb / (k - 1)) / (ssw / (n - k)), k - 1, n - k


def oracle_local_maxima(values) -> list[int]:
    """Brute force: an index is a peak if it strictly exceeds the previous
    value and the plateau it starts descends afterwards."""
    peaks = []
    n = len(values)
    for i in range(1, n - 1):
        if not values[i] > values[i - 1]:
            continue
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if j + 1 < n and values[j + 1] < values[i]:
            peaks.append(i)
    return peaks


def oracle_prominence(values, peak: int) -> float:
    height = values[peak]
    left = values[:peak][::-1]
    right = values[peak + 1:]

    def base(side):
        lowest = height
        for v in side:
            if v > height:
                break
            lowest = min(lowest, v)
        return lowest

    return height - max(base(left), base(right))


def oracle_kmeans_optimum(X: np.ndarray, k: int) -> float:
    """Exhaustive minimum inertia over every labeling with <= k clusters."""
    n = X.shape[0]
    best = math.inf
    for code in range(k ** n):
        labels = []
        c = code
        for _ in range(n):
            labels.append(c % k)
            c //= k
        inertia = 0.0
        for label in set(labels):
            members = X[[i for i, l in enumerate(labels) if l == label]]
            centroid = members.mean(axis=0)
            inertia += float(((members - centroid) ** 2).sum())
        best = min(best, inertia)
    return best


def oracle_kmeans_optimum_fast(X: np.ndarray, k: int) -> float:
    """Same exhaustive search, vectorized over all k^n labelings.

    Uses the identity sum ||x - mean||^2 = sum ||x||^2 - ||sum x||^2 / count
    per cluster, evaluated for every labeling at once.
    """
    import itertools

    n = X.shape[0]
    labelings = np.array(list(itertools.product(range(k), repeat=n)))
    onehot = np.eye(k)[labelings]                      # (m, n, k)
    counts = onehot.sum(axis=1)                        # (m, k)
    sums = np.einsum("mnk,nd->mkd", onehot, X)         # (m, k, d)
    sq = (X ** 2).sum(axis=1)                          # (n,)
    sumsq = np.einsum("mnk,n->mk", onehot, sq)         # (m, k)
    with np.errstate(invalid="ignore", divide="ignore"):
        within = sumsq - (sums ** 2).sum(axis=2) / counts
    within[counts == 0] = 0.0
    return float(within.sum(axis=1).min())


def oracle_beat(t_ms: float, grid) -> int | None:
    """Governing beat of a track time by a linear scan of the beats (in ms);
    None off the track, beat 0 before the first beat."""
    if not 0.0 <= t_ms <= grid.duration_s * 1000.0:
        return None
    beat = 0
    for b, t in enumerate(grid.beat_times):
        if t * 1000.0 <= t_ms:
            beat = b
    return beat


def oracle_bar_buckets(session, grid, values, include_nonperformance=False,
                       offset_ms=0.0) -> list[list[float]]:
    """Per-bar lists of the non-null values, in record order."""
    buckets = [[] for _ in range(grid.n_bars)]
    for record, value in zip(session.records, values):
        if value is None:
            continue
        if not include_nonperformance and record.chorus_id in (0, 999):
            continue
        beat = oracle_beat(record.backing_track_position + offset_ms, grid)
        if beat is not None:
            buckets[beat // 4].append(float(value))
    return buckets


def oracle_bar_stat(bucket, stat: str) -> float | None:
    """One statistic of one bar: numpy's reduction over the bar's values."""
    if not bucket:
        return None
    arr = np.array(bucket)
    if stat == "std":
        return 0.0 if len(bucket) == 1 else float(np.std(arr, ddof=1))
    return float(getattr(np, stat)(arr))


def oracle_mode(ids) -> int | None:
    """Most frequent id, ties to the smaller id; None for no ids."""
    if not ids:
        return None
    return min(set(ids), key=lambda c: (-ids.count(c), c))


# -- per-record oracles of the columnar session core ------------------------
#
# These are the record-by-record implementations the columns replaced.
# They read the Record objects a session was built from, never the session.

_ORACLE_SCALARS = {"sync_delta": "sync_delta", "sync_chorus_id": "chorus_id",
                   "chorus_id": "chorus_id", "backing_track_position": "backing_track_position",
                   "flow": "flow", "hardware_bitalino_eda": "eda", "eda": "eda"}
for _ch in ("t3", "t4", "o1", "o2"):
    _ORACLE_SCALARS[f"hardware_brainbit_eeg_{_ch}"] = _ORACLE_SCALARS[f"eeg_{_ch}"] = f"eeg_{_ch}"


def oracle_column_values(records, name: str) -> list:
    """One column by a per-record getattr, as column_values read it."""
    if name in _ORACLE_SCALARS:
        return [getattr(r, _ORACLE_SCALARS[name]) for r in records]
    short = name.removeprefix("hardware_skeleton_")
    for axis in ("x", "y", "confidence"):
        if short.endswith("_" + axis):
            part = short[:-len(axis) - 1]
            return [None if r.keypoints.get(part) is None else getattr(r.keypoints[part], axis)
                    for r in records]
    assert any(name in r.extras for r in records), name
    return [v if isinstance(v, (int, float)) and not isinstance(v, bool) else None
            for v in (r.extras.get(name) for r in records)]


def oracle_validate_session(records) -> list[str]:
    """The clock check and validate_record on every record, in record order."""
    from musicking_lab.model import validate_record

    if not records:
        return ["records empty"]
    violations = []
    prev = records[0].backing_track_position
    for i, record in enumerate(records):
        if i > 0:
            if not record.backing_track_position > prev:
                violations.append(f"position not strictly increasing at index {i}")
            prev = record.backing_track_position
        violations.extend(f"record {i}: {v}" for v in validate_record(record))
    return violations


def oracle_mean_trajectory(records, parts) -> tuple[list, list]:
    """Per-record sum(xs) / len(xs) over the listed parts, sentinels skipped."""
    mean_x, mean_y = [], []
    for record in records:
        xs, ys = [], []
        for part in parts:
            point = record.keypoints.get(part)
            if point is None or (point.x == -1.0 and point.y == -1.0):
                continue
            xs.append(point.x)
            ys.append(point.y)
        mean_x.append(sum(xs) / len(xs) if xs else None)
        mean_y.append(sum(ys) / len(ys) if ys else None)
    return mean_x, mean_y


_INT_KEYS = ("sync_chorus_id", "flow", "hardware_bitalino_eda",
             "hardware_brainbit_eeg_t3", "hardware_brainbit_eeg_t4",
             "hardware_brainbit_eeg_o1", "hardware_brainbit_eeg_o2")


def oracle_parse_error(rows) -> tuple[str, str] | None:
    """(error class name, message) of the first contract break in decoded
    rows, scanning row by row with the record checks before the clock
    check; None when the rows keep the contract."""
    from musicking_lab.model import SKELETON_PARTS

    def number(value, key, row):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"row {row}: {key} is not numeric: {value!r}"
        try:
            finite = math.isfinite(float(value))
        except OverflowError:
            finite = False
        return None if finite else f"row {row}: {key} is not finite"

    def record_error(obj, row):
        if not isinstance(obj, dict):
            return "MalformedDocument", f"row {row}: record is not an object"
        if obj.get("backing_track_position") is None:
            return "SchemaError", f"row {row}: required field backing_track_position missing"
        for key in ("backing_track_position", "sync_delta", *_INT_KEYS):
            value = obj.get(key)
            if value is None:
                continue
            problem = number(value, key, row)
            if problem is None and key in _INT_KEYS and not float(value).is_integer():
                problem = f"row {row}: {key} must be an integer, got {value!r}"
            if problem:
                return "SchemaError", problem
        skeleton_keys = set()
        for part in SKELETON_PARTS:
            keys = [f"hardware_skeleton_{part}_{axis}" for axis in ("x", "y", "confidence")]
            skeleton_keys.update(keys)
            values = [obj.get(key) for key in keys]
            if all(v is None for v in values):
                continue
            if any(v is None for v in values):
                return "SchemaError", f"row {row}: incomplete keypoint for {part}"
            for value in values:
                problem = number(value, f"hardware_skeleton_{part}", row)
                if problem:
                    return "SchemaError", problem
        known = {"session_id", "backing_track_position", "sync_delta", *_INT_KEYS, *skeleton_keys}
        for key, value in obj.items():
            if key not in known and isinstance(value, (int, float)) \
                    and not isinstance(value, bool) and number(value, key, row):
                return "SchemaError", number(value, key, row)
        session_id = obj.get("session_id")
        if session_id is not None and not isinstance(session_id, str):
            return "SchemaError", f"row {row}: session_id is not a string: {session_id!r}"
        return None

    previous = None
    for row, obj in enumerate(rows):
        error = record_error(obj, row)
        if error:
            return error
        position = float(obj["backing_track_position"])
        if previous is not None and not position > previous:
            return "SchemaError", (f"row {row}: backing_track_position {position!r} not "
                                   f"strictly increasing (previous {previous!r})")
        previous = position
    return None
