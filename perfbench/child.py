"""One measured process: a CLI command or the library pipeline.

    python3 perfbench/child.py [--trace FILE --run-id ID] cli ARGS...
    python3 perfbench/child.py [--trace FILE --run-id ID] library SESSION_FILE

``cli`` runs ``musicking_lab.cli.main(ARGS)`` and exits with its code.
``library`` runs the in-process pipeline on one session file and prints
one JSON line: its wall time, a digest of its results and the shape
facts the benchmark checks.  With ``--trace`` the package is wrapped by
``perfbench/spans.py`` first and the spans are written to FILE on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

WINDOW_SECONDS = 10.0
MAX_FLOW_GAP = 8
LIBRARY_COLUMN = "eeg_t3"


def library_pipeline(path: str) -> dict:
    """load -> validate -> impute/interpolate flow -> windowed correlation
    -> per-bar features; timed in-process."""
    from musicking_lab import analytics, cluster, ingest, model, quality, timing

    grid = ingest.load_bundled_beat_grid()
    start = time.perf_counter()
    session = ingest.load_session(path)
    violations = model.validate_session(session)
    flow = model.column_values(session, "flow")
    imputed = quality.impute_median(flow)
    filled = quality.interpolate_gaps(flow, MAX_FLOW_GAP)
    eda = model.column_values(session, "eda")
    rate = timing.infer_sampling_rate(session).rate_hz
    window = analytics.seconds_to_samples(WINDOW_SECONDS, rate)
    windows = analytics.windowed_correlation(eda, filled, window)
    features = cluster.bar_features(session, grid, LIBRARY_COLUMN)
    seconds = time.perf_counter() - start

    digest = hashlib.sha256(json.dumps(
        [violations, imputed, filled, windows, features.bar_index,
         features.rows.tolist(), features.dropped]).encode()).hexdigest()
    return {"seconds": seconds, "digest": digest, "records": len(session.records),
            "violations": len(violations), "imputed_nulls": imputed.count(None),
            "filled_len": len(filled), "windows": len(windows), "window": window,
            "bars": list(features.bar_index), "feature_shape": list(features.rows.shape)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--run-id", default="")
    parser.add_argument("mode", choices=("cli", "library"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    recorder = None
    if opts.trace is not None:
        import spans

        recorder = spans.Recorder(opts.run_id)
        spans.install(recorder)
    try:
        if opts.mode == "cli":
            from musicking_lab import cli

            return cli.main(opts.args)
        print(json.dumps(library_pipeline(opts.args[0])))
        return 0
    finally:
        if recorder is not None:
            recorder.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
