"""Command-line entry point: validate, analyze, compare, cluster.

Structured outputs (JSON/CSV) are byte-deterministic for a given input,
config, and seed: keys are sorted, floats use repr round-tripping, and no
timestamps are embedded.  Logs go to stderr so the tool composes in
pipelines; data goes only to files under --out.  Each command computes all
its files before one writer creates any, so a refused run writes nothing
under --out, and an unwritable --out is reported after the work.

Exit codes: 0 success, 1 usage or I/O error, 2 partial success (some
dataset files skipped).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientData, MusickingError, NonFinite, TooFewSessions, UnknownSession
from .ingest import DatasetWalk, find_session, load_bundled_beat_grid, parse_beat_grid
from .model import (
    SKELETON_PARTS,
    BeatGrid,
    EEG_CHANNELS,
    Session,
    _column,
    _in_performance,
    column_values,
)

log = logging.getLogger("musicking_lab")

DATASET_ENV_VAR = "MUSICKING_LAB_DATASET"
TRAJECTORY_HEATMAP_PARTS = ("l_wrist", "r_wrist", "l_ear")
OCCUPANCY_GRID_SHAPE = (20, 20)  # (width, height) cells
TOP_CORRELATED_SESSIONS = 5

@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI invocation (flags > config file > defaults)."""

    dataset_dir: str | None = None
    beat_grid_path: str | None = None
    output_dir: str = "musicking-out"
    confidence_threshold: float = 0.5
    iqr_k: float = 1.5
    window_seconds: float = 10.0
    exclude_nonperformance: bool = True
    seed: int = 0
    k_range: tuple[int, int] = (2, 8)
    svg: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(f"confidence-threshold {self.confidence_threshold} not in [0, 1]")
        if not 0.0 <= self.iqr_k < math.inf:
            raise ValueError(f"iqr-k must be finite and >= 0, got {self.iqr_k}")
        if not 0.0 < self.window_seconds < math.inf:
            raise ValueError(f"window-seconds must be finite and > 0, got {self.window_seconds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.k_range[0] > self.k_range[1]:
            raise ValueError(f"k-range {self.k_range} is empty")
        if self.k_range[0] < 2:
            raise ValueError(f"k-range {self.k_range} starts below 2 clusters")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["k_range"] = list(self.k_range)
        # --workers is gone; the seed-1 digests in perfbench/golden.json pin this echo.
        d["workers"] = None
        return d


def parse_k_range(text: str) -> tuple[int, int]:
    sep = ":" if ":" in text else ".."
    try:
        lo, hi = text.split(sep)
        return int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"k-range must look like LO:HI, got {text!r}") from exc


_BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_bool(text: str) -> bool:
    try:
        return _BOOLEAN_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}") from None


# Every setting once: its RunConfig field (the config-file key), its flag,
# how a value is read, and the flag's help.  A boolean setting's flag takes
# no value and sets the field to the opposite of its default.
_SETTINGS = (
    ("dataset_dir", "--dataset", str, f"session file directory (default ${DATASET_ENV_VAR})"),
    ("beat_grid_path", "--grid", str, "beat-grid JSON path (default: bundled backing track)"),
    ("output_dir", "--out", str, "output directory"),
    ("confidence_threshold", "--confidence-threshold", float,
     "keypoint confidence below which a row counts as low-confidence"),
    ("iqr_k", "--iqr-k", float, "IQR fence multiplier for outliers"),
    ("window_seconds", "--window-seconds", float, "rolling-window length in seconds"),
    ("exclude_nonperformance", "--include-nonperformance", _read_bool,
     "keep chorus 0/999 records in analyses"),
    ("seed", "--seed", int, "random seed (>= 0)"),
    ("k_range", "--k-range", parse_k_range, "inclusive LO:HI"),
    ("svg", "--svg", _read_bool, "render SVG figures"),
)


def _read(name: str, reader, text):
    try:
        return reader(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def load_config_file(path: str | Path) -> dict:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags > config file > $MUSICKING_LAB_DATASET > RunConfig's defaults."""
    readers = {field: reader for field, _, reader, _ in _SETTINGS}
    values = {}
    if getattr(args, "config", None):
        for key, text in load_config_file(args.config).items():
            if key not in readers:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _read(f"config key {key!r}", readers[key], text)
    if "dataset_dir" not in values and os.environ.get(DATASET_ENV_VAR):
        values["dataset_dir"] = os.environ[DATASET_ENV_VAR]
    for field, flag, reader, _ in _SETTINGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if reader is _read_bool:
            if value:
                values[field] = not getattr(RunConfig, field)
        elif value is not None:
            values[field] = _read(flag, reader, value)
    config = RunConfig(**values)
    config.validate()
    return config


# -- output helpers ---------------------------------------------------------

def write_json(path: Path, payload) -> None:
    try:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"{path}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path: Path, rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write(output_dir: str, files: dict) -> None:
    """Write each file, keyed by its path under ``output_dir``, by suffix: a
    JSON payload, CSV rows with the header first, or SVG text.  JSON goes
    first, so a non-finite payload is refused before a CSV or SVG exists, and
    every path is encoded first, so a name the file system cannot hold is
    refused before anything exists."""
    paths = {name: Path(output_dir, name) for name in files}
    for path in paths.values():
        try:
            os.fsencode(path)
        except UnicodeEncodeError as exc:
            raise OSError(f"{path}: file name not encodable as {exc.encoding}") from None
    for name in sorted(files, key=lambda name: not name.endswith(".json")):
        path = paths[name]
        if name.endswith(".json"):
            write_json(path, files[name])
        elif name.endswith(".csv"):
            write_csv(path, files[name])
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(files[name], encoding="utf-8")


def _load_grid(config: RunConfig) -> BeatGrid:
    if config.beat_grid_path is None:
        return load_bundled_beat_grid()
    try:
        return parse_beat_grid(Path(config.beat_grid_path).read_bytes())
    except MusickingError as exc:  # named like a skipped session file
        raise type(exc)(f"{config.beat_grid_path}: {exc}") from None


def _find_session(config: RunConfig, session_id: str) -> Session:
    session = find_session(config.dataset_dir, session_id)
    if session is None:
        raise UnknownSession(f"session {session_id!r} not found in {config.dataset_dir}")
    return session


# -- validate ----------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    """Quality-audit every session file and write one report per session."""
    from . import quality
    walk = DatasetWalk(config.dataset_dir)
    files = {}
    for session in walk:
        try:
            report = quality.integrity_report(session, config.confidence_threshold, iqr_k=config.iqr_k)
        except NonFinite as exc:  # named as _load_grid names the grid file
            raise NonFinite(f"session {session.session_id!r}: {exc}") from None
        files[f"validate/{session.session_id}.quality.json"] = report.as_dict()
    manifest = walk.manifest()
    files["validate/summary.json"] = {
        "config": config.as_dict(),
        "sessions": [asdict(e) for e in manifest.entries],
        "skipped": [list(s) for s in manifest.skipped],
    }
    _write(config.output_dir, files)
    for path, reason in manifest.skipped:
        log.warning("skipped %s: %s", path, reason)
    log.info("validated %d sessions (%d skipped)", len(manifest.entries), len(manifest.skipped))
    return 2 if manifest.skipped else 0


# -- analyze -----------------------------------------------------------------

def _or_insufficient(compute):
    """``compute()``, or the insufficient-data marker with the reason when
    the data is too short or too flat for it."""
    try:
        return compute()
    except InsufficientData as exc:
        return {"status": "insufficient data", "reason": str(exc)}


def _delta_payload(profile) -> dict:
    return {"histogram": profile.histogram, "outlier_indices": profile.outliers.indices,
            "fences": [profile.outliers.lower, profile.outliers.upper]}


def cmd_analyze(config: RunConfig, session_id: str) -> int:
    """Single-session deep dive: one JSON bundle plus tables and figures."""
    from . import analytics, quality, timing
    session = _find_session(config, session_id)
    grid = _load_grid(config)

    profile = functools.cache(lambda: timing.infer_sampling_rate(session))
    eda = _column(session, "eda")
    eda_summary = functools.cache(lambda: analytics.describe(eda))
    eeg = {f"eeg_{ch}": _column(session, f"eeg_{ch}") for ch in EEG_CHANNELS}

    def sampling() -> dict:
        fields = asdict(profile())  # refuses intervals that overflow, before np.diff warns
        intervals = np.diff(_column(session, "backing_track_position"))
        return dict(fields, interval_histogram=_or_insufficient(
            lambda: analytics.histogram(intervals, 20)))

    def rolling() -> dict:
        window = analytics.seconds_to_samples(config.window_seconds, profile().rate_hz)
        return {"window_samples": window, "eda_mean": analytics.rolling_stat(eda, window, "mean"),
                **{f"{name}_variance": analytics.rolling_stat(values, window, "variance")
                   for name, values in eeg.items()}}

    def peaks() -> dict:
        min_distance = analytics.seconds_to_samples(1.0, profile().rate_hz)
        return asdict(analytics.detect_peaks(eda, min_distance_samples=min_distance,
                                             min_prominence=eda_summary().std))

    scan = quality.sentinel_scan(session, config.confidence_threshold)
    mean_x, mean_y = analytics.mean_trajectory(session, SKELETON_PARTS)
    bundle = {
        "session_id": session.session_id,
        "record_count": len(session),
        "config": config.as_dict(),
        "sections": {
            "sampling_profile": _or_insufficient(sampling),
            "delta_profile": _or_insufficient(
                lambda: _delta_payload(timing.delta_profile(session, iqr_k=config.iqr_k))),
            "chorus_segments": _or_insufficient(
                lambda: [asdict(s) for s in timing.segment_choruses(session)]),
            "summaries": {
                "flow": _or_insufficient(
                    lambda: analytics.describe(_column(session, "flow")).as_dict()),
                "eda": _or_insufficient(lambda: eda_summary().as_dict())},
            "rolling_tracks": _or_insufficient(rolling),
            "eda_peaks": _or_insufficient(peaks),
            "eeg_correlation": analytics.correlation_matrix(eeg).as_dict(),
            "skeleton_quality": {
                "scan": {name: asdict(c) for name, c in scan.items()},
                "reliable_columns": quality.reliable_columns(scan),
            },
            "mean_trajectory": {"mean_x": mean_x, "mean_y": mean_y},
            "occupancy_grids": {part: _or_insufficient(lambda: analytics.occupancy_grid(
                _column(session, f"{part}_x"), _column(session, f"{part}_y"),
                *OCCUPANCY_GRID_SHAPE).tolist()) for part in TRAJECTORY_HEATMAP_PARTS},
        },
    }
    out = f"analyze/{session_id}"
    files = {f"{out}/analysis.json": bundle, f"{out}/alignment.csv": [
        ["record_index", "t_ms", "chorus_id", "bar_index", "beat_in_bar"],
        *([a.record_index, a.t_ms, a.chorus_id, a.bar_index, a.beat_in_bar]
          for a in timing.align_session(session, grid))]}
    if config.svg:
        files.update((f"{out}/{name}", text) for name, text in _analyze_svgs(session, bundle))
    _write(config.output_dir, files)
    log.info("analyzed session %s into %s", session_id, Path(config.output_dir, out))
    return 0


def _analyze_svgs(session: Session, bundle: dict):
    """Each figure of ``analyze --svg`` as (file name, SVG text)."""
    from . import analytics, svg
    sections = bundle["sections"]
    eda = column_values(session, "eda")
    flow = column_values(session, "flow")
    tracks = {"eda": eda}
    if "eda_mean" in sections["rolling_tracks"]:
        tracks["eda rolling mean"] = sections["rolling_tracks"]["eda_mean"]
    yield "eda_timeseries.svg", svg.line_chart(tracks, title="EDA")
    yield "flow_timeseries.svg", svg.line_chart({"flow": flow}, title="flow")
    for name, values in (("eda", eda), ("flow", flow)):
        bins = _or_insufficient(lambda: analytics.histogram(values, 20))
        if isinstance(bins, list):
            yield f"{name}_histogram.svg", svg.histogram_chart(bins, title=f"{name} distribution")
    for part, grid_counts in sections["occupancy_grids"].items():
        if isinstance(grid_counts, list):
            yield f"occupancy_{part}.svg", svg.heatmap(grid_counts, title=f"{part} occupancy")
    matrix = sections["eeg_correlation"]
    yield "eeg_correlation.svg", svg.heatmap(matrix["values"], title="EEG channel correlation")


# -- compare -----------------------------------------------------------------

def _top_correlated(correlations: dict[str, float]) -> list[str]:
    ranked = sorted(correlations.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return [session_id for session_id, _ in ranked[:TOP_CORRELATED_SESSIONS]]


def _overlay(session: Session) -> list[dict]:
    from . import timing
    try:
        segments = timing.segment_choruses(session)
    except InsufficientData:
        segments = []
    t_ms = _column(session, "backing_track_position").tolist()
    eda = column_values(session, "eda")
    flow = column_values(session, "flow")
    return [{
        "chorus_id": seg.chorus_id,
        "t_ms": t_ms[seg.start_index:seg.end_index + 1],
        "eda": eda[seg.start_index:seg.end_index + 1],
        "flow": flow[seg.start_index:seg.end_index + 1],
    } for seg in segments if seg.performance]


def _box(summary, eda, iqr_k: float) -> dict:
    from . import quality
    outliers, lower, upper = quality._iqr_mask(eda, iqr_k)
    return {"median": summary.median, "q25": summary.q25, "q75": summary.q75,
            "lower_fence": lower, "upper_fence": upper, "outlier_count": int(outliers.sum())}


def cmd_compare(config: RunConfig) -> int:
    """Cross-session comparison: summary table, box stats, ANOVA, overlays.

    Sessions stream through one at a time in file-name order; only what the
    outputs need is kept, and the outputs are ordered by session id.
    """
    from . import analytics, stats
    session_count = 0
    summary_rows = []
    box_stats = {}
    groups = {}
    correlations = {}
    overlays = {}  # choruses of the sessions currently among the top correlated
    for session in DatasetWalk(config.dataset_dir):
        session_count += 1
        session_id = session.session_id
        keep = _in_performance(_column(session, "chorus_id")) | (not config.exclude_nonperformance)
        eda, flow = (_column(session, name)[keep] for name in ("eda", "flow"))
        try:
            summary = analytics.describe(eda)
        except InsufficientData:
            continue
        summary_rows.append([session_id, summary.count, summary.mean, summary.std,
                             summary.min, summary.q25, summary.median, summary.q75,
                             summary.max])
        box_stats[session_id] = _or_insufficient(lambda: _box(summary, eda, config.iqr_k))
        groups[session_id] = eda
        try:
            correlations[session_id] = analytics.correlate(eda, flow)
        except InsufficientData:
            continue
        top = _top_correlated(correlations)
        if session_id in top:
            overlays[session_id] = _overlay(session)
            overlays = {sid: overlays[sid] for sid in top if sid in overlays}
    if session_count < 2:
        raise TooFewSessions(f"compare needs >= 2 sessions, found {session_count}")

    summary_rows.sort(key=lambda row: row[0])
    _write(config.output_dir, {
        "compare/eda_summary.csv": [
            ["session_id", "count", "mean", "std", "min", "25%", "50%", "75%", "max"],
            *summary_rows],
        "compare/boxplot.json": box_stats,
        # The group order sets the order of ANOVA's floating-point sums.
        "compare/anova.json": _or_insufficient(
            lambda: stats.anova_oneway([groups[sid] for sid in sorted(groups)]).as_dict()),
        "compare/top_correlated.json": {
            sid: {"correlation": correlations[sid], "choruses": overlays[sid]}
            for sid in _top_correlated(correlations)},
    })
    log.info("compared %d sessions into %s", session_count, Path(config.output_dir, "compare"))
    return 0


# -- cluster -----------------------------------------------------------------

def cmd_cluster(config: RunConfig, session_id: str, column: str = "eda") -> int:
    """Per-bar features, k selection, best-k fit, and a cluster/chorus join."""
    from . import cluster, timing
    session = _find_session(config, session_id)
    grid = _load_grid(config)

    matrix = cluster.bar_features(
        session, grid, column,
        include_nonperformance=not config.exclude_nonperformance)
    rows = matrix.rows.shape[0]
    if rows and float(matrix.rows.std()) == 0.0:
        log.warning("feature matrix for %s is degenerate (constant column); "
                    "silhouette table will be uninformative", column)

    lo, hi = config.k_range
    if lo <= rows - 1 < hi:  # select_k refuses a range that the clamp would empty
        hi = rows - 1
        log.warning("k-range upper bound clamped to %d (only %d bars)", hi, rows)
    best_k, diagnostics = cluster.select_k(matrix.rows, (lo, hi), seed=config.seed,
                                           row_labels=matrix.bar_index)
    result = next(d.fit for d in diagnostics if d.k == best_k)

    payload = result.as_dict()
    payload["column"] = column
    payload["feature_names"] = list(matrix.feature_names)
    payload["dropped_bars"] = list(matrix.dropped)
    payload["best_k"] = best_k

    chorus_of_bar = timing.per_bar_chorus(
        session, grid, include_nonperformance=not config.exclude_nonperformance)
    contingency: dict[str, dict[str, int]] = {}
    for bar, assigned in result.assignments.items():
        chorus = chorus_of_bar[bar]
        row = contingency.setdefault(str(assigned), {})
        key = "none" if chorus is None else str(chorus)
        row[key] = row.get(key, 0) + 1

    out = f"cluster/{session_id}"
    files = {f"{out}/diagnostics.csv": [["k", "inertia", "silhouette"],
                                         *([d.k, d.inertia, d.silhouette] for d in diagnostics)],
             f"{out}/cluster_result.json": payload, f"{out}/contingency.json": contingency}
    if config.svg:
        from . import svg
        files[f"{out}/silhouette.svg"] = svg.histogram_chart(
            [(float(d.k), float(d.k) + 1.0, max(0.0, d.silhouette)) for d in diagnostics],
            title="silhouette by k")
    _write(config.output_dir, files)
    log.info("clustered %s.%s: best k=%d, sizes=%s", session_id, column,
             best_k, list(result.sizes))
    return 0


# -- entry point ---------------------------------------------------------------

# Every command once: its help, its cmd_* function, and the flags whose
# values that function takes after the config, in order.
_COMMANDS = {
    "validate": ("audit data quality of every session", cmd_validate, ()),
    "analyze": ("deep dive into one session", cmd_analyze, ("--session",)),
    "compare": ("cross-session statistics and ANOVA", cmd_compare, ()),
    "cluster": ("per-bar KMeans clustering", cmd_cluster, ("--session", "--column")),
}
_COMMAND_FLAGS = {"--session": {"required": True}, "--column": {"default": "eda"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musicking-lab",
        description="Validate, synchronize, and analyze multimodal "
                    "music-performance session recordings.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for _, flag, reader, flag_help in _SETTINGS:
            if reader is _read_bool:
                p.add_argument(flag, action="store_true", help=flag_help)
            else:
                p.add_argument(flag, help=flag_help)
        for flag in flags:
            p.add_argument(flag, **_COMMAND_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if config.dataset_dir is None:
            raise ValueError(f"{args.command} needs --dataset (or {DATASET_ENV_VAR})")
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1
    _, command, flags = _COMMANDS[args.command]
    try:
        return command(config, *(getattr(args, flag[2:]) for flag in flags))
    except (MusickingError, OSError, UnicodeEncodeError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
