"""Command-line entry point: validate, analyze, compare, cluster.

Structured outputs (JSON/CSV) are byte-deterministic for a given input,
config, and seed: keys are sorted, floats use repr round-tripping, and no
timestamps are embedded.  Logs go to stderr so the tool composes in
pipelines; data goes only to files under --out.

Exit codes: 0 success, 1 usage or I/O error, 2 partial success (some
dataset files skipped).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analytics, cluster, quality, stats, svg, timing
from .errors import (
    EmptySeries,
    DegenerateSeries,
    DegenerateVariance,
    InvalidRange,
    MissingChorusIds,
    MusickingError,
    NonFinite,
    NoValidPoints,
    TooFewGroups,
    TooFewPairs,
    TooFewRecords,
    TooFewSessions,
    TooFewValues,
    UnknownSession,
)
from .ingest import DatasetWalk, find_session, load_bundled_beat_grid, parse_beat_grid
from .model import (
    NONPERFORMANCE_CHORUS_IDS,
    SKELETON_PARTS,
    BeatGrid,
    EEG_CHANNELS,
    Session,
    _column,
    column_values,
)

log = logging.getLogger("musicking_lab")

DATASET_ENV_VAR = "MUSICKING_LAB_DATASET"
TRAJECTORY_HEATMAP_PARTS = ("l_wrist", "r_wrist", "l_ear")
OCCUPANCY_GRID_SHAPE = (20, 20)  # (width, height) cells
TOP_CORRELATED_SESSIONS = 5

INSUFFICIENT = {"status": "insufficient data"}


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
        if self.iqr_k < 0:
            raise ValueError(f"iqr-k must be >= 0, got {self.iqr_k}")
        if self.window_seconds <= 0:
            raise ValueError(f"window-seconds must be > 0, got {self.window_seconds}")
        if self.k_range[0] > self.k_range[1]:
            raise ValueError(f"k-range {self.k_range} is empty")

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


def load_config_file(path: str | Path) -> dict:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_CONFIG_PARSERS = {
    "dataset_dir": str,
    "beat_grid_path": str,
    "output_dir": str,
    "confidence_threshold": float,
    "iqr_k": float,
    "window_seconds": float,
    "exclude_nonperformance": lambda v: v.lower() in ("1", "true", "yes"),
    "seed": int,
    "k_range": parse_k_range,
    "svg": lambda v: v.lower() in ("1", "true", "yes"),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        raw = load_config_file(args.config)
        fields = {}
        for key, text in raw.items():
            parser = _CONFIG_PARSERS.get(key)
            if parser is None:
                raise ValueError(f"unknown config key {key!r}")
            fields[key] = parser(text)
        config = replace(config, **fields)
    env_dataset = os.environ.get(DATASET_ENV_VAR)
    if config.dataset_dir is None and env_dataset:
        config = replace(config, dataset_dir=env_dataset)

    overrides = {}
    for flag, field in (("dataset", "dataset_dir"), ("grid", "beat_grid_path"),
                        ("out", "output_dir"), ("confidence_threshold", "confidence_threshold"),
                        ("iqr_k", "iqr_k"), ("window_seconds", "window_seconds"),
                        ("seed", "seed")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "k_range", None) is not None:
        overrides["k_range"] = parse_k_range(args.k_range)
    if getattr(args, "include_nonperformance", False):
        overrides["exclude_nonperformance"] = False
    if getattr(args, "svg", False):
        overrides["svg"] = True
    config = replace(config, **overrides)
    config.validate()
    return config


# -- output helpers ---------------------------------------------------------

def write_json(path: Path, payload) -> None:
    try:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"{path}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ensure_writable(directory: str) -> Path:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    probe = path / ".write-probe"
    probe.write_text("")
    probe.unlink()
    return path


def _load_grid(config: RunConfig) -> BeatGrid:
    if config.beat_grid_path is None:
        return load_bundled_beat_grid()
    return parse_beat_grid(Path(config.beat_grid_path).read_bytes())


def _find_session(config: RunConfig, session_id: str) -> Session:
    if config.dataset_dir is None:
        raise UnknownSession("no dataset directory configured")
    session = find_session(config.dataset_dir, session_id)
    if session is None:
        raise UnknownSession(f"session {session_id!r} not found in {config.dataset_dir}")
    return session


def _performance_values(session: Session, column: str,
                        exclude_nonperformance: bool) -> np.ndarray:
    values = _column(session, column)
    if not exclude_nonperformance:
        return values
    return values[~np.isin(_column(session, "chorus_id"), NONPERFORMANCE_CHORUS_IDS)]


# -- validate ----------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    """Quality-audit every session file and write one report per session."""
    if config.dataset_dir is None:
        log.error("validate needs --dataset (or %s)", DATASET_ENV_VAR)
        return 1
    out = _ensure_writable(config.output_dir) / "validate"
    try:
        walk = DatasetWalk(config.dataset_dir)
    except OSError as exc:
        log.error("cannot read dataset directory: %s", exc)
        return 1

    for session in walk:
        report = quality.integrity_report(session, config.confidence_threshold,
                                          iqr_k=config.iqr_k)
        write_json(out / f"{session.session_id}.quality.json", report.as_dict())
    manifest = walk.manifest()
    write_json(out / "summary.json", {
        "config": config.as_dict(),
        "sessions": [asdict(e) for e in manifest.entries],
        "skipped": [list(s) for s in manifest.skipped],
    })
    for path, reason in manifest.skipped:
        log.warning("skipped %s: %s", path, reason)
    log.info("validated %d sessions (%d skipped)", len(manifest.entries), len(manifest.skipped))
    return 2 if manifest.skipped else 0


# -- analyze -----------------------------------------------------------------

def _sampling_section(session: Session):
    try:
        profile = timing.infer_sampling_rate(session)
    except TooFewRecords as exc:
        return dict(INSUFFICIENT, reason=str(exc)), None
    payload = asdict(profile)
    payload["interval_histogram"] = [list(b) for b in profile.interval_histogram]
    return payload, profile


def _delta_section(session: Session, iqr_k: float):
    try:
        profile = timing.delta_profile(session, iqr_k=iqr_k)
    except (TooFewRecords, TooFewValues, EmptySeries) as exc:
        return dict(INSUFFICIENT, reason=str(exc))
    return {"histogram": [list(b) for b in profile.histogram],
            "outlier_indices": list(profile.outliers.indices),
            "fences": [profile.outliers.lower, profile.outliers.upper]}


def _chorus_section(session: Session):
    try:
        segments = timing.segment_choruses(session)
    except MissingChorusIds as exc:
        return dict(INSUFFICIENT, reason=str(exc)), []
    return [asdict(s) for s in segments], segments


def _summary_section(values) -> dict:
    try:
        return analytics.describe(values).as_dict()
    except EmptySeries as exc:
        return dict(INSUFFICIENT, reason=str(exc))


def _correlation_section(session: Session) -> dict:
    channels = {f"eeg_{ch}": column_values(session, f"eeg_{ch}") for ch in EEG_CHANNELS}
    return analytics.correlation_matrix(channels).as_dict()


def cmd_analyze(config: RunConfig, session_id: str) -> int:
    """Single-session deep dive: one JSON bundle plus tables and figures."""
    session = _find_session(config, session_id)
    grid = _load_grid(config)
    out = _ensure_writable(config.output_dir) / "analyze" / session_id

    sampling, profile = _sampling_section(session)
    rate = profile.rate_hz if profile is not None else None
    eda = column_values(session, "eda")
    flow = column_values(session, "flow")

    if rate is not None:
        window = analytics.seconds_to_samples(config.window_seconds, rate)
        rolling = {
            "window_samples": window,
            "eda_mean": analytics.rolling_stat(eda, window, "mean"),
            **{f"eeg_{ch}_variance":
               analytics.rolling_stat(column_values(session, f"eeg_{ch}"), window, "variance")
               for ch in EEG_CHANNELS},
        }
        eda_summary = _summary_section(eda)
        if "std" in eda_summary:
            peaks = analytics.detect_peaks(
                eda,
                min_distance_samples=analytics.seconds_to_samples(1.0, rate),
                min_prominence=eda_summary["std"])
            peak_section = {"indices": list(peaks.indices),
                            "prominences": list(peaks.prominences),
                            "min_distance_samples": peaks.min_distance_samples,
                            "min_prominence": peaks.min_prominence}
        else:
            peak_section = dict(INSUFFICIENT, reason="no EDA values")
    else:
        rolling = dict(INSUFFICIENT, reason="sampling rate unavailable")
        eda_summary = _summary_section(eda)
        peak_section = dict(INSUFFICIENT, reason="sampling rate unavailable")

    chorus_section, _segments = _chorus_section(session)
    scan = quality.sentinel_scan(session, config.confidence_threshold)
    mean_x, mean_y = analytics.mean_trajectory(session, SKELETON_PARTS)

    occupancy = {}
    for part in TRAJECTORY_HEATMAP_PARTS:
        xs = column_values(session, f"{part}_x")
        ys = column_values(session, f"{part}_y")
        try:
            grid_counts = analytics.occupancy_grid(xs, ys, *OCCUPANCY_GRID_SHAPE)
            occupancy[part] = [[int(v) for v in row] for row in grid_counts]
        except NoValidPoints:
            occupancy[part] = dict(INSUFFICIENT, reason="all samples sentinel")

    bundle = {
        "session_id": session.session_id,
        "record_count": len(session),
        "config": config.as_dict(),
        "sections": {
            "sampling_profile": sampling,
            "delta_profile": _delta_section(session, config.iqr_k),
            "chorus_segments": chorus_section,
            "summaries": {"flow": _summary_section(flow), "eda": eda_summary},
            "rolling_tracks": rolling,
            "eda_peaks": peak_section,
            "eeg_correlation": _correlation_section(session),
            "skeleton_quality": {
                "scan": {name: asdict(c) for name, c in scan.items()},
                "reliable_columns": quality.reliable_columns(scan),
            },
            "mean_trajectory": {"mean_x": mean_x, "mean_y": mean_y},
            "occupancy_grids": occupancy,
        },
    }
    write_json(out / "analysis.json", bundle)

    aligned = timing.align_session(session, grid)
    write_csv(out / "alignment.csv",
              ["record_index", "t_ms", "chorus_id", "bar_index", "beat_in_bar"],
              [[a.record_index, a.t_ms, a.chorus_id, a.bar_index, a.beat_in_bar]
               for a in aligned])

    if config.svg:
        _write_analyze_svgs(out, session, bundle)
    log.info("analyzed session %s into %s", session_id, out)
    return 0


def _write_analyze_svgs(out: Path, session: Session, bundle: dict) -> None:
    sections = bundle["sections"]
    eda = column_values(session, "eda")
    flow = column_values(session, "flow")
    tracks = {"eda": eda}
    if isinstance(sections["rolling_tracks"], dict) and "eda_mean" in sections["rolling_tracks"]:
        tracks["eda rolling mean"] = sections["rolling_tracks"]["eda_mean"]
    (out / "eda_timeseries.svg").write_text(svg.line_chart(tracks, title="EDA"))
    (out / "flow_timeseries.svg").write_text(svg.line_chart({"flow": flow}, title="flow"))
    for name, values in (("eda", eda), ("flow", flow)):
        try:
            bins = analytics.histogram(values, 20)
        except EmptySeries:
            continue
        (out / f"{name}_histogram.svg").write_text(
            svg.histogram_chart(bins, title=f"{name} distribution"))
    for part, grid_counts in sections["occupancy_grids"].items():
        if isinstance(grid_counts, list):
            (out / f"occupancy_{part}.svg").write_text(
                svg.heatmap(grid_counts, title=f"{part} occupancy"))
    matrix = sections["eeg_correlation"]
    (out / "eeg_correlation.svg").write_text(
        svg.heatmap(matrix["values"], title="EEG channel correlation"))


# -- compare -----------------------------------------------------------------

def _top_correlated(correlations: dict[str, float]) -> list[str]:
    ranked = sorted(correlations.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return [session_id for session_id, _ in ranked[:TOP_CORRELATED_SESSIONS]]


def _overlay(session: Session) -> list[dict]:
    try:
        segments = timing.segment_choruses(session)
    except MissingChorusIds:
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


def cmd_compare(config: RunConfig) -> int:
    """Cross-session comparison: summary table, box stats, ANOVA, overlays.

    Sessions stream through one at a time in file-name order; only what the
    outputs need is kept, and the outputs are ordered by session id.
    """
    if config.dataset_dir is None:
        log.error("compare needs --dataset (or %s)", DATASET_ENV_VAR)
        return 1

    session_count = 0
    summary_rows = []
    box_stats = {}
    groups = {}
    correlations = {}
    overlays = {}  # choruses of the sessions currently among the top correlated
    for session in DatasetWalk(config.dataset_dir):
        session_count += 1
        session_id = session.session_id
        eda = _performance_values(session, "eda", config.exclude_nonperformance)
        try:
            summary = analytics.describe(eda)
        except EmptySeries:
            continue
        summary_rows.append([session_id, summary.count, summary.mean, summary.std,
                             summary.min, summary.q25, summary.median, summary.q75,
                             summary.max])
        try:
            entry = quality.iqr_outliers(eda, k=config.iqr_k)
            box_stats[session_id] = {
                "median": summary.median, "q25": summary.q25, "q75": summary.q75,
                "lower_fence": entry.lower, "upper_fence": entry.upper,
                "outlier_count": len(entry.indices)}
        except TooFewValues:
            box_stats[session_id] = dict(INSUFFICIENT)
        groups[session_id] = eda
        flow = _performance_values(session, "flow", config.exclude_nonperformance)
        try:
            correlations[session_id] = analytics.correlate(eda, flow)
        except (TooFewPairs, DegenerateSeries):
            continue
        top = _top_correlated(correlations)
        if session_id in top:
            overlays[session_id] = _overlay(session)
            overlays = {sid: overlays[sid] for sid in top if sid in overlays}
    if session_count < 2:
        raise TooFewSessions(f"compare needs >= 2 sessions, found {session_count}")
    out = _ensure_writable(config.output_dir) / "compare"

    summary_rows.sort(key=lambda row: row[0])
    write_csv(out / "eda_summary.csv",
              ["session_id", "count", "mean", "std", "min", "25%", "50%", "75%", "max"],
              summary_rows)
    write_json(out / "boxplot.json", box_stats)

    try:
        # The group order sets the order of ANOVA's floating-point sums.
        anova = stats.anova_oneway([groups[sid] for sid in sorted(groups)]).as_dict()
    except (TooFewGroups, DegenerateVariance) as exc:
        anova = dict(INSUFFICIENT, reason=str(exc))
    write_json(out / "anova.json", anova)

    write_json(out / "top_correlated.json", {
        sid: {"correlation": correlations[sid], "choruses": overlays[sid]}
        for sid in _top_correlated(correlations)})
    log.info("compared %d sessions into %s", session_count, out)
    return 0


# -- cluster -----------------------------------------------------------------

def cmd_cluster(config: RunConfig, session_id: str, column: str = "eda") -> int:
    """Per-bar features, k selection, best-k fit, and a cluster/chorus join."""
    session = _find_session(config, session_id)
    grid = _load_grid(config)
    out = _ensure_writable(config.output_dir) / "cluster" / session_id

    matrix = cluster.bar_features(
        session, grid, column,
        include_nonperformance=not config.exclude_nonperformance)
    rows = matrix.rows.shape[0]
    if rows and float(matrix.rows.std()) == 0.0:
        log.warning("feature matrix for %s is degenerate (constant column); "
                    "silhouette table will be uninformative", column)

    lo, hi = config.k_range
    if hi > rows - 1:
        hi = rows - 1
        log.warning("k-range upper bound clamped to %d (only %d bars)", hi, rows)
    if lo > hi:
        raise InvalidRange(f"k range [{lo}, {hi}] invalid for {rows} bars")
    best_k, diagnostics = cluster.select_k(matrix.rows, (lo, hi), seed=config.seed,
                                           row_labels=matrix.bar_index)
    result = next(d.fit for d in diagnostics if d.k == best_k)

    write_csv(out / "diagnostics.csv", ["k", "inertia", "silhouette"],
              [[d.k, d.inertia, d.silhouette] for d in diagnostics])
    payload = result.as_dict()
    payload["column"] = column
    payload["feature_names"] = list(matrix.feature_names)
    payload["dropped_bars"] = list(matrix.dropped)
    payload["best_k"] = best_k
    write_json(out / "cluster_result.json", payload)

    chorus_of_bar = timing.per_bar_chorus(
        session, grid, include_nonperformance=not config.exclude_nonperformance)
    contingency: dict[str, dict[str, int]] = {}
    for bar, assigned in result.assignments.items():
        chorus = chorus_of_bar[bar]
        row = contingency.setdefault(str(assigned), {})
        key = "none" if chorus is None else str(chorus)
        row[key] = row.get(key, 0) + 1
    write_json(out / "contingency.json", contingency)

    if config.svg:
        (out / "silhouette.svg").write_text(svg.histogram_chart(
            [(float(d.k), float(d.k) + 1.0, max(0.0, d.silhouette)) for d in diagnostics],
            title="silhouette by k"))
    log.info("clustered %s.%s: best k=%d, sizes=%s", session_id, column,
             best_k, list(result.sizes))
    return 0


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musicking-lab",
        description="Validate, synchronize, and analyze multimodal "
                    "music-performance session recordings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", help=f"session file directory (default ${DATASET_ENV_VAR})")
        p.add_argument("--grid", help="beat-grid JSON path (default: bundled backing track)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--confidence-threshold", type=float, dest="confidence_threshold")
        p.add_argument("--iqr-k", type=float, dest="iqr_k")
        p.add_argument("--window-seconds", type=float, dest="window_seconds")
        p.add_argument("--k-range", dest="k_range", help="inclusive LO:HI")
        p.add_argument("--include-nonperformance", action="store_true",
                       dest="include_nonperformance",
                       help="keep chorus 0/999 records in analyses")
        p.add_argument("--svg", action="store_true", help="render SVG figures")

    p_validate = sub.add_parser("validate", help="audit data quality of every session")
    common(p_validate)
    p_analyze = sub.add_parser("analyze", help="deep dive into one session")
    common(p_analyze)
    p_analyze.add_argument("--session", required=True)
    p_compare = sub.add_parser("compare", help="cross-session statistics and ANOVA")
    common(p_compare)
    p_cluster = sub.add_parser("cluster", help="per-bar KMeans clustering")
    common(p_cluster)
    p_cluster.add_argument("--session", required=True)
    p_cluster.add_argument("--column", default="eda")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1
    try:
        # Overflows, and the NaNs they lead to, are reported where their
        # results are refused, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "validate":
                return cmd_validate(config)
            if args.command == "analyze":
                return cmd_analyze(config, args.session)
            if args.command == "compare":
                return cmd_compare(config)
            if args.command == "cluster":
                return cmd_cluster(config, args.session, args.column)
    except (MusickingError, OSError) as exc:
        log.error("%s", exc)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
