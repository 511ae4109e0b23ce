"""Seeded synthetic session corpus plus the ground truth the checks use.

Every session follows the shape of the real recordings: about 7.7 Hz
records over the bundled backing track, all 45 canonical columns, twelve
skeleton parts with about 5% sentinel keypoints and some low-confidence
rows, nulls in flow, EDA and the first ``sync_delta``, and the chorus
structure 0 (lead-in) / 1-5 (playthroughs) / 999 (tail).  EDA switches
between bar-level regimes so that k selection has something to find.

Session lengths come from a fixed list, so the total amount of work does
not depend on the seed; they vary inside a corpus unless every session is
asked to have the needle's length.  A non-finite or
non-monotone master clock is deliberately absent: the code under test
crashes on it rather than slowing down, so it is a correctness case for
the test suite, not a benchmark input.

``generate`` writes ``OUT/corpus/*.json`` and ``OUT/truth.json``.
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path

import numpy as np

GRID_FILE = Path("src/musicking_lab/data/backing_track_grid.json")
RATE_HZ = 7.7
SKELETON_PARTS = ("nose", "neck", "r_shoulder", "r_elbow", "r_wrist", "l_shoulder",
                  "l_elbow", "l_wrist", "r_eye", "l_eye", "r_ear", "l_ear")
EEG_CHANNELS = ("t3", "t4", "o1", "o2")
SENTINEL_RATE = 0.05
LOW_CONFIDENCE_RATE = 0.08
EDA_LEVELS = (250.0, 420.0, 600.0, 820.0)
EDA_NOISE = (3.0, 8.0, 15.0, 25.0)
# Seconds of recording of the session the single-session commands use.
NEEDLE_END_S = 340.0


def canonical_columns() -> list[str]:
    names = ["sync_delta", "sync_chorus_id", "backing_track_position", "flow",
             "hardware_bitalino_eda"]
    names += [f"hardware_brainbit_eeg_{ch}" for ch in EEG_CHANNELS]
    for part in SKELETON_PARTS:
        names += [f"hardware_skeleton_{part}_{axis}" for axis in ("x", "y", "confidence")]
    return names


def load_grid(root: Path) -> dict:
    grid = json.loads((root / GRID_FILE).read_text())
    return {"beats_ms": [t * 1000.0 for t in grid["beats_s"]],
            "bars_ms": [t * 1000.0 for t in grid["bars_s"]],
            "duration_ms": grid["duration_s"] * 1000.0}


def _null_runs(rng: np.random.Generator, n: int, starts: int, max_run: int) -> np.ndarray:
    """Boolean mask with ``starts`` null runs of 1..max_run samples."""
    mask = np.zeros(n, dtype=bool)
    for start in rng.integers(0, n, size=starts):
        mask[start:start + int(rng.integers(1, max_run + 1))] = True
    return mask


def _bar_of(bars_ms: list[float], t_ms: float) -> int:
    return max(0, bisect.bisect_right(bars_ms, t_ms) - 1)


def make_session(rng: np.random.Generator, session_id: str, end_s: float,
                 grid: dict) -> tuple[list[dict], dict]:
    """One session's rows and its ground truth."""
    n = int(end_s * RATE_HZ)
    interval = 1000.0 / RATE_HZ
    t = np.round(np.arange(n) * interval + 6.0 + rng.uniform(-5.0, 5.0, n), 3)
    duration_ms = grid["duration_ms"]
    lead_in_ms = float(rng.uniform(1500.0, 9000.0))
    perf_end_ms = min(duration_ms, end_s * 1000.0 - float(rng.uniform(5000.0, 15000.0)))
    bars = [_bar_of(grid["bars_ms"], float(x)) for x in t]
    chorus = [0 if x < lead_in_ms else 999 if x > perf_end_ms else min(5, b // 16 + 1)
              for x, b in zip(t, bars)]

    # EDA: a Markov chain over regimes, switched at bar boundaries.
    n_bars = len(grid["bars_ms"])
    regime = [int(rng.integers(len(EDA_LEVELS)))]
    for _ in range(n_bars):
        regime.append(regime[-1] if rng.random() < 0.8 else int(rng.integers(len(EDA_LEVELS))))
    level = np.array([EDA_LEVELS[regime[b]] for b in bars]) + rng.normal(0.0, 20.0)
    noise = np.array([EDA_NOISE[regime[b]] for b in bars]) * rng.standard_normal(n)
    eda = np.maximum(0, np.round(level + noise)).astype(int).tolist()
    eda_null = _null_runs(rng, n, n // 150, 5)

    flow = np.clip(np.round(55 + np.cumsum(rng.normal(0.0, 0.6, n))), 0, 100).astype(int).tolist()
    flow_null = _null_runs(rng, n, n // 60, 12)

    shared = 50000.0 + 20000.0 * np.sin(2.0 * np.pi * t / 60000.0)
    eeg = {ch: np.maximum(0, np.round(shared * (1.0 + rng.normal(0.0, 0.02, n))
                                      + rng.normal(0.0, 800.0, n))).astype(int).tolist()
           for ch in EEG_CHANNELS}

    skeleton = {}
    sentinels = {}
    for p, part in enumerate(SKELETON_PARTS):
        base_x, base_y = 180.0 + 12.0 * p, 100.0 + 15.0 * p
        x = np.round(base_x + 25.0 * np.sin(t / (3000.0 + 250.0 * p)) + rng.normal(0, 2.0, n), 2)
        y = np.round(base_y + 15.0 * np.cos(t / (4000.0 + 300.0 * p)) + rng.normal(0, 2.0, n), 2)
        conf = np.round(rng.uniform(0.55, 0.99, n), 3)
        low = rng.random(n) < LOW_CONFIDENCE_RATE
        conf[low] = np.round(rng.uniform(0.05, 0.45, int(low.sum())), 3)
        sentinel = rng.random(n) < SENTINEL_RATE
        x[sentinel] = -1.0
        y[sentinel] = -1.0
        conf[sentinel] = 0.0
        skeleton[part] = (x.tolist(), y.tolist(), conf.tolist())
        sentinels[part] = int(sentinel.sum())

    positions = t.tolist()
    rows = []
    for i in range(n):
        row = {
            "session_id": session_id,
            "sync_delta": None if i == 0 else round(positions[i] - positions[i - 1], 3),
            "sync_chorus_id": chorus[i],
            "backing_track_position": positions[i],
            "flow": None if flow_null[i] else flow[i],
            "hardware_bitalino_eda": None if eda_null[i] else eda[i],
        }
        for ch in EEG_CHANNELS:
            row[f"hardware_brainbit_eeg_{ch}"] = eeg[ch][i]
        for part in SKELETON_PARTS:
            x, y, conf = skeleton[part]
            row[f"hardware_skeleton_{part}_x"] = x[i]
            row[f"hardware_skeleton_{part}_y"] = y[i]
            row[f"hardware_skeleton_{part}_confidence"] = conf[i]
        rows.append(row)

    nulls = dict.fromkeys(canonical_columns(), 0)
    nulls["sync_delta"] = 1
    nulls["flow"] = int(flow_null.sum())
    nulls["hardware_bitalino_eda"] = int(eda_null.sum())
    minus_one = {}
    for part in SKELETON_PARTS:
        minus_one[f"hardware_skeleton_{part}_x"] = sentinels[part]
        minus_one[f"hardware_skeleton_{part}_y"] = sentinels[part]
        minus_one[f"hardware_skeleton_{part}_confidence"] = 0

    def bars_with(null: np.ndarray | None) -> list[int]:
        """Bars that hold a non-null performance sample of a column."""
        return sorted({b for i, b in enumerate(bars)
                       if chorus[i] not in (0, 999) and t[i] <= duration_ms
                       and (null is None or not null[i])})

    truth = {
        "session_id": session_id,
        "records": n,
        "nulls": nulls,
        "sentinels": sentinels,
        "minus_one": minus_one,
        "bars": {"eda": bars_with(eda_null), "eeg_t3": bars_with(None)},
    }
    return rows, truth


def end_times(sessions: int, mixed: bool) -> list[float]:
    """Fixed recording lengths (seconds), the needle's last."""
    if not mixed:
        return [NEEDLE_END_S] * sessions
    others = np.linspace(312.0, 368.0, sessions - 1).tolist()
    return others + [NEEDLE_END_S]


def generate(out: Path, sessions: int, mixed: bool, bad: bool, seed: int, root: Path) -> dict:
    """Write ``out/corpus`` and ``out/truth.json``; return the truth."""
    rng = np.random.default_rng(seed)
    grid = load_grid(root)
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    lengths = end_times(sessions, mixed)
    ids = [f"p{int(v):05d}" for v in rng.choice(100000, size=sessions + 1, replace=False)]
    order = rng.permutation(sessions)
    truth = {"seed": seed, "n_bars": len(grid["bars_ms"]), "sessions": {}, "skipped": [],
             "needle": None}
    for i, session_id in enumerate(ids[:sessions]):
        end_s = lengths[int(order[i])]
        rows, session_truth = make_session(rng, session_id, end_s, grid)
        text = json.dumps(rows, indent=1)
        (corpus / f"{session_id}.json").write_text(text)
        truth["sessions"][session_id] = session_truth
        if order[i] == sessions - 1:
            truth["needle"] = session_id
    if bad:
        victim = truth["needle"]  # a fixed length keeps the work independent of the seed
        source = (corpus / f"{victim}.json").read_text()
        # "." sorts before "_", so the original file is kept and the copy skipped
        duplicate = f"corpus/{victim}_copy.json"
        (out / duplicate).write_text(source)
        truncated_id = ids[sessions]
        rows, _ = make_session(rng, truncated_id, 330.0, grid)
        text = json.dumps(rows, indent=1)
        truncated = f"corpus/{truncated_id}.json"
        (out / truncated).write_text(text[:len(text) // 2])
        truth["skipped"] = sorted([[truncated, "not valid JSON:"],
                                   [duplicate, f"duplicate session_id {victim!r}"]])
    (out / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True))
    return truth

