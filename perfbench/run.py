"""End-to-end benchmark of the musicking-lab CLI over a seeded synthetic corpus.

    python3 perfbench/run.py --workload corpus_audit --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 2

Run it from the repository root; it needs nothing installed beyond numpy.
Each run generates its corpus from ``--seed`` (not timed), then repeats
the workload's commands, one fresh subprocess at a time, until
``--seconds`` are used; after every command it times a fresh interpreter
that only sets up (``setup_s``) and one that runs a fixed reference job,
by which every end-to-end time is scaled.  Every output is
checked against the generator's ground truth, against the first repeat
(byte identity) and, for the default seed, against committed golden
digests.  With ``--trace 1`` the run alternates untraced and traced
repeats and reports the per-layer metrics instead.

Metric names, units and bounds live in ``BENCHMARK.json``; definitions
and the layer-to-end-to-end mapping are in ``perfbench/RATIONALE.md``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

DEFAULT_SEED = 1
GOLDEN_FILE = HERE / "golden.json"
SETUP_CODE = ("import musicking_lab; from musicking_lab.ingest import load_bundled_beat_grid; "
              "load_bundled_beat_grid()")
# The machine's speed drifts by a fifth and more over minutes, and whole
# runs drift with it.  A fixed job that owes nothing to the package --
# interpreter start, numpy import, a JSON round trip of record-like dicts
# -- is timed after every invocation, and every end-to-end time is scaled
# by REFERENCE_S / (the run's median reference time): seconds on a machine
# that runs the reference in REFERENCE_S.  ``-I`` keeps ``src`` off its path.
REFERENCE_CODE = ("import json, numpy\n"
                  "rows = [{f'c{j}': (i * 7919 + j * 104729) % 100003 / 7.0 for j in range(45)}\n"
                  "        for i in range(1500)]\n"
                  "json.loads(json.dumps(rows))")
REFERENCE_S = 0.3     # fixed; only the unit of the scaled seconds depends on it
CLUSTER_COLUMN = "eda"
BAR_FEATURES = 4      # len(cluster.DEFAULT_BAR_FEATURES)
K_RANGE_FITS = 8      # select_k over the default k-range 2:8, plus the refit of the best k
DIAGNOSTIC_ROWS = 7   # one per k in 2:8
PARSE = "ingest.parse_session_file"
FUNCTION_ALIASES = {"ingest.parse": PARSE, "ingest.discover": "ingest.discover_dataset"}
ROADMAP_ROWS = {  # ROADMAP baseline row -> traced function, reported in ms per call
    "parse_session_file, one file": PARSE,
    "integrity_report(iqr_k=1.5)": "quality.integrity_report",
    "bar_features": "cluster.bar_features",
    "select_k(2..8)": "cluster.select_k",
    "detect_peaks": "analytics.detect_peaks",
    "windowed_correlation(w=77)": "analytics.windowed_correlation",
    "align_session": "timing.align_session",
    "per_bar_chorus": "timing.per_bar_chorus",
    "discover_dataset": "ingest.discover_dataset",
}


@dataclass(frozen=True)
class Workload:
    sessions: int
    mixed_lengths: bool
    bad_files: bool
    validate_exit: int
    every_session: bool  # single-session commands on every session, else on the needle
    library_runs: int    # library pipelines per session and repeat, each a fresh process


WORKLOADS = {
    "corpus_audit": Workload(sessions=3, mixed_lengths=True, bad_files=True, validate_exit=2,
                             every_session=False, library_runs=3),
    # Equal lengths: both sessions' invocations sample one distribution,
    # so the median over them is not the gap between two.
    "session_drilldown": Workload(sessions=2, mixed_lengths=False, bad_files=False,
                                  validate_exit=0, every_session=True, library_runs=1),
}


@dataclass
class OpResult:
    label: str
    kind: str
    wall: float      # the subprocess, start to exit
    seconds: float   # the metric: ``wall``, or the in-process time of the library pipeline
    rss_mb: float
    records: int
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None


def tail_percentile(values: list[float]):
    """Highest of p99..p50 with at least ten samples beyond it, else None."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.work = work
        self.truth = corpus.generate(work, self.workload.sessions, self.workload.mixed_lengths,
                                     self.workload.bad_files, seed, ROOT)
        self.files = sorted((work / "corpus").glob("*.json"))
        self.env = {k: v for k, v in os.environ.items() if k != "MUSICKING_LAB_DATASET"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        sessions = self.truth["sessions"]
        self.all_records = sum(s["records"] for s in sessions.values())
        drill = sorted(sessions) if self.workload.every_session else [self.truth["needle"]]
        self.plan = [("validate", None), ("compare", None)]
        kinds = ["analyze", "cluster"] + ["library"] * self.workload.library_runs
        self.plan += [(kind, sid) for sid in drill for kind in kinds]
        self.digests: dict[str, str] = {}
        self.expected: dict[str, float] = {}  # seconds the last invocation of a kind took
        self.golden = (json.loads(GOLDEN_FILE.read_text())[name] if seed == DEFAULT_SEED
                       else None)

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """Run one child to completion; wall seconds, peak RSS (MB), exit
        code, stdout, stderr."""
        stdout, stderr = self.work / "stdout.txt", self.work / "stderr.txt"
        with stdout.open("wb") as out, stderr.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                stdout.read_text(), stderr.read_text())

    def probe_seconds(self, argv: list[str]) -> float:
        """Wall time of a fresh interpreter that must exit 0."""
        seconds, _, code, _, err = self.spawn([sys.executable, *argv])
        if code != 0:
            raise RuntimeError(f"{argv[-1]!r} failed: {err.strip()}")
        return seconds

    def setup_seconds(self) -> float:
        """Fresh interpreter: import the package and parse the bundled grid."""
        return self.probe_seconds(["-c", SETUP_CODE])

    def reference_seconds(self) -> float:
        return self.probe_seconds(["-I", "-c", REFERENCE_CODE])

    def run_op(self, kind: str, sid: str | None, trace_file: Path | None) -> OpResult:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        label = kind if sid is None else f"{kind} {sid}"
        prefix = [sys.executable, "-m", "musicking_lab.cli"]
        if trace_file is not None or kind == "library":
            prefix = [sys.executable, str(HERE / "child.py")]
            if trace_file is not None:
                prefix += ["--trace", str(trace_file), "--run-id", label]
            prefix.append("library" if kind == "library" else "cli")
        if kind == "library":
            args = [f"corpus/{sid}.json"]
        else:
            args = [kind, "--dataset", "corpus", "--out", "out"]
            if kind == "analyze":
                args += ["--svg", "--session", sid]
            elif kind == "cluster":
                args += ["--column", CLUSTER_COLUMN, "--session", sid]
        seconds, rss, code, stdout, stderr = self.spawn(prefix + args)

        sessions = self.truth["sessions"]
        records = self.all_records if sid is None else sessions[sid]["records"]
        result = OpResult(label, kind, seconds, seconds, rss, records)
        expected_code = self.workload.validate_exit if kind == "validate" else 0
        if code != expected_code:
            tail = stderr.strip().splitlines()[-1:] or [""]
            result.errors.append(f"exit code {code}, expected {expected_code}: {tail[0]}")
        else:
            try:
                if kind == "library":
                    info = json.loads(stdout.strip().splitlines()[-1])
                    result.seconds = info["seconds"]
                    digest = info["digest"]
                    self.check_library(sid, info, result.errors)
                else:
                    digest = tree_digest(out)
                    getattr(self, f"check_{kind}")(out, sid, result.errors)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                result.errors.append(f"unreadable output: {exc!r}")
                digest = None
            self.check_digest(label, digest, result.errors)
        if trace_file is not None:
            if trace_file.exists():
                result.trace = json.loads(trace_file.read_text())
                trace_file.unlink()
            else:
                result.errors.append("the traced process wrote no trace")
                result.trace = {"spans": [], "counters": {}, "skipped": []}
        return result

    # -- output checks -------------------------------------------------------

    def check_digest(self, label: str, digest: str | None, errors: list[str]) -> None:
        first = self.digests.setdefault(label, digest)
        if digest != first:
            errors.append("outputs differ from the first repeat of this seed")
        if self.golden is not None and digest != self.golden.get(label):
            errors.append("outputs differ from the golden digest of the default seed")

    def check_validate(self, out: Path, _sid, errors: list[str]) -> None:
        sessions = self.truth["sessions"]
        summary = json.loads((out / "validate" / "summary.json").read_text())
        listed = {e["session_id"]: e["record_count"] for e in summary["sessions"]}
        if listed != {sid: s["records"] for sid, s in sessions.items()}:
            errors.append(f"validate manifest {listed} does not match the corpus")
        skipped = dict(map(tuple, summary["skipped"]))
        expected = dict(map(tuple, self.truth["skipped"]))
        if skipped.keys() != expected.keys() or not all(
                skipped[path].startswith(reason) for path, reason in expected.items()):
            errors.append(f"validate skip list {skipped} expected {expected}")
        for sid, truth in sessions.items():
            report = json.loads((out / "validate" / f"{sid}.quality.json").read_text())
            if report["record_count"] != truth["records"]:
                errors.append(f"{sid}: record_count {report['record_count']}")
            columns = report["columns"]
            for name, nulls in truth["nulls"].items():
                if columns[name]["missing_count"] != nulls:
                    errors.append(f"{sid}.{name}: missing_count {columns[name]['missing_count']}"
                                  f", expected {nulls}")
            for name, count in truth["minus_one"].items():
                if columns[name]["minus_one_count"] != count:
                    errors.append(f"{sid}.{name}: minus_one_count "
                                  f"{columns[name]['minus_one_count']}, expected {count}")

    def check_compare(self, out: Path, _sid, errors: list[str]) -> None:
        lines = (out / "compare" / "eda_summary.csv").read_text().splitlines()
        if sorted(line.split(",")[0] for line in lines[1:]) != sorted(self.truth["sessions"]):
            errors.append("eda_summary.csv does not list every session")
        anova = json.loads((out / "compare" / "anova.json").read_text())
        if "status" in anova:
            errors.append(f"anova: {anova}")
        for name in ("boxplot.json", "top_correlated.json"):
            json.loads((out / "compare" / name).read_text())

    def check_analyze(self, out: Path, sid: str, errors: list[str]) -> None:
        records = self.truth["sessions"][sid]["records"]
        folder = out / "analyze" / sid
        bundle = json.loads((folder / "analysis.json").read_text())
        if bundle["record_count"] != records:
            errors.append(f"analysis.json record_count {bundle['record_count']}")
        rows = (folder / "alignment.csv").read_text().splitlines()
        if len(rows) != records + 1:
            errors.append(f"alignment.csv has {len(rows) - 1} rows for {records} records")
        for name in ("eda_timeseries.svg", "flow_timeseries.svg", "eeg_correlation.svg"):
            if not (folder / name).read_text().startswith("<svg"):
                errors.append(f"{name} is not an SVG document")

    def check_cluster(self, out: Path, sid: str, errors: list[str]) -> None:
        folder = out / "cluster" / sid
        result = json.loads((folder / "cluster_result.json").read_text())
        bars = self.truth["sessions"][sid]["bars"][CLUSTER_COLUMN]
        assigned = sorted(int(b) for b in result["assignments"])
        if assigned != bars:
            errors.append(f"cluster_result.json covers bars {assigned}, expected {bars}")
        dropped = sorted(set(range(self.truth["n_bars"])) - set(bars))
        if result["dropped_bars"] != dropped:
            errors.append(f"dropped_bars {result['dropped_bars']}, expected {dropped}")
        diagnostics = (folder / "diagnostics.csv").read_text().splitlines()
        if len(diagnostics) != DIAGNOSTIC_ROWS + 1:
            errors.append(f"diagnostics.csv has {len(diagnostics) - 1} rows")

    def check_library(self, sid: str, info: dict, errors: list[str]) -> None:
        truth = self.truth["sessions"][sid]
        records, bars = truth["records"], truth["bars"]["eeg_t3"]
        expected = {"records": records, "violations": 0, "imputed_nulls": 0,
                    "filled_len": records, "windows": records - info["window"] + 1,
                    "bars": bars, "feature_shape": [len(bars), BAR_FEATURES]}
        for key, value in expected.items():
            if info[key] != value:
                errors.append(f"library {key} = {info[key]}, expected {value}")

    def check_counts(self, result: OpResult) -> list[str]:
        """Call counts the code predicts exactly; reported, not failed."""
        calls = Counter(span[1] for span in result.trace["spans"])
        parses = {"validate": len(self.files) + self.workload.sessions,
                  "compare": len(self.files) + self.workload.sessions,
                  "analyze": len(self.files) + 1, "cluster": len(self.files) + 1,
                  "library": 1}[result.kind]
        expected = {PARSE: parses}
        if result.kind == "cluster":
            expected["cluster.kmeans_fit"] = K_RANGE_FITS
        expected["timing.aggregate_per_bar"] = BAR_FEATURES * calls["cluster.bar_features"]
        return [f"{result.label}: {name} called {calls[name]} times, predicted {n}"
                for name, n in expected.items() if calls[name] != n]

    # -- repeats ---------------------------------------------------------------

    def iteration(self, traced: bool, index: int, deadline: float | None = None
                  ) -> tuple[list[OpResult], list[float], list[float]]:
        """One repeat: its invocations' results and, untraced, the set-up
        and reference times taken between them.  With ``deadline`` it stops
        before the first invocation that, timed like the last of its kind,
        would end after it."""
        results, setup, reference = [], [], []
        for n, (kind, sid) in enumerate(self.plan):
            if deadline is not None and time.perf_counter() + self.expected[kind] > deadline:
                break
            trace_file = self.work / f"trace-{index}-{n}.json" if traced else None
            start = time.perf_counter()
            result = self.run_op(kind, sid, trace_file)
            results.append(result)
            if not traced:
                setup.append(self.setup_seconds())
                reference.append(self.reference_seconds())
            self.expected[kind] = time.perf_counter() - start
        return results, setup, reference

    def json_floor_ms(self) -> float:
        """Mean per-file time of a bare ``json.loads`` of the corpus files."""
        per_file = []
        for path in self.files:
            text = path.read_bytes().decode("utf-8", errors="replace")
            times = []
            for _ in range(3):
                start = time.perf_counter()
                try:
                    json.loads(text)
                except ValueError:
                    pass
                times.append(time.perf_counter() - start)
            per_file.append(statistics.median(times))
        return 1000.0 * sum(per_file) / len(per_file)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(results: list[OpResult], names: list[str],
                  floor_ms: float) -> tuple[dict, dict]:
    """Per-layer values of one traced repeat, and its ROADMAP rows in ms per call."""
    calls, incl, self_ns, counters = Counter(), Counter(), Counter(), Counter()
    skipped, parse_spans = set(), []
    for result in results:
        spans = result.trace["spans"]
        child_ns = Counter()
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for span_id, name, start, end, _, _ in spans:
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns[span_id]
            if name == PARSE:
                parse_spans.append((start, end))
        counters.update(result.trace["counters"])
        skipped.update(tuple(s) for s in result.trace["skipped"])

    union, reach = 0, None
    for start, end in sorted(parse_spans):
        if reach is None or start >= reach:
            union += end - start
            reach = end
        elif end > reach:
            union += end - reach
            reach = end
    duplicates = sum(1 for _, reason in skipped if reason.startswith("duplicate session_id"))
    special = {
        "ingest.parse_ms_per_file": ratio(self_ns[PARSE] / 1e6, calls[PARSE]),
        "ingest.records_parsed": counters["ingest.records_parsed"],
        "ingest.records_used_ratio": ratio(sum(r.records for r in results),
                                           counters["ingest.records_parsed"]),
        "ingest.files_skipped.malformed": len(skipped) - duplicates,
        "ingest.files_skipped.duplicate": duplicates,
        "ingest.parse_concurrency": ratio(sum(e - s for s, e in parse_spans), union),
        "ingest.json_floor_ms_per_file": floor_ms,
        "svg.render_s": sum(v for k, v in incl.items() if k.startswith("svg.")) / 1e9,
        "cli.write_s": (self_ns["cli.write_json"] + self_ns["cli.write_csv"]) / 1e9,
        "cli.bytes_written": counters["cli.bytes_written"],
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        for suffix, table, scale in (("_calls", calls, 1), ("_self_s", self_ns, 1e9),
                                     ("_s", incl, 1e9)):
            if name.endswith(suffix):
                fn = name[:-len(suffix)]
                fn = FUNCTION_ALIASES.get(fn, fn)
                total = table[fn] + (counters[fn + ".calls"] if suffix == "_calls" else 0)
                values[name] = total / scale
                break
    roadmap = {row: 1000.0 * incl[fn] / 1e9 / calls[fn] for row, fn in ROADMAP_ROWS.items()
               if calls[fn]}
    return values, roadmap


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Run one workload; its result line."""
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(name, seed, work)
        metric_specs = spec["per_layer"] if traced else spec["end_to_end"]
        samples: dict[str, list[float]] = defaultdict(list)
        attempted = failed = 0
        roadmap_rows: dict[str, list[float]] = defaultdict(list)
        count_errors: list[str] = []
        if traced:
            floor_ms = bench.json_floor_ms()
        else:
            bench.setup_seconds()  # warm-up: bytecode caches are written once per checkout
            bench.reference_seconds()
        rss_by_label: dict[str, list[float]] = defaultdict(list)

        deadline = time.perf_counter() + seconds
        loop_start = time.perf_counter()
        repeats = 0
        while True:
            # Untraced, the last repeat runs the invocations that still fit,
            # so no measuring time is left idle; traced repeats stay whole.
            results, setup, reference = bench.iteration(
                False, repeats, deadline if repeats and not traced else None)
            complete = len(results) == len(bench.plan)
            plain_wall = sum(r.wall for r in results)
            if complete:
                samples["wall_s"].append(plain_wall)
            samples["setup_s"] += setup
            samples["reference"] += reference
            if traced:
                traced_results, _, _ = bench.iteration(True, repeats)
                samples["traced_wall_s"].append(sum(r.wall for r in traced_results))
                values, roadmap = layer_metrics(
                    traced_results, [m["name"] for m in metric_specs], floor_ms)
                for key, value in values.items():
                    samples[key].append(value)
                for row, ms in roadmap.items():
                    roadmap_rows[row].append(ms)
                for result in traced_results:
                    count_errors += bench.check_counts(result)
                results = results + traced_results
            else:
                for result in results:
                    samples[f"{result.kind}_s"].append(result.seconds)
                    rss_by_label[result.label].append(result.rss_mb)
                if complete:
                    samples["records_per_s"].append(
                        sum(r.records for r in results) / plain_wall)
                    samples["peak_rss_mb"].append(max(r.rss_mb for r in results))
            for result in results:
                attempted += 1
                if result.errors:
                    failed += 1
                    for error in result.errors:
                        print(f"FAILED {name} {result.label}: {error}", file=sys.stderr)
            repeats += 1
            now = time.perf_counter()
            if not complete or now >= deadline or (
                    traced and now + (now - loop_start) / repeats > deadline):
                break
        if traced:
            samples["trace.overhead_ratio"] = [
                statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"])]
        for error in count_errors:
            print(f"COUNT MISMATCH {name} {error}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    # Untraced, times are scaled to the reference machine and rates by its inverse.
    scale = 1.0 if traced else REFERENCE_S / statistics.median(samples["reference"])
    metrics, raw = {}, {}
    for m in metric_specs:
        values = samples[m["name"]]
        raw[m["name"]] = statistics.median(values)
        factor = {"s": scale, "records/s": 1.0 / scale}.get(m["unit"], 1.0)
        values = [v * factor for v in values]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        if m["unit"] in ("s", "ms"):
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {tail[1]:.4g}" if tail
                         else "no tail percentile (fewer than 20 samples)")
        else:
            tail_text = ""
        print(f"{name:18} {m['name']:38} {statistics.median(values):12.6g} {m['unit']:10} "
              f"n={len(values)} {tail_text}")
    if traced:
        detail = {"roadmap_ms_per_call": {row: statistics.median(v)
                                          for row, v in roadmap_rows.items()},
                  "count_mismatches": count_errors}
    else:
        detail = {"scale": scale, "reference_s": statistics.median(samples["reference"]),
                  "unscaled": raw, "samples": len(samples["reference"]),
                  "peak_rss_mb_by_command": {label: max(v) for label, v in rss_by_label.items()}}
    print(json.dumps({"workload": name, "seed": seed, **detail, "digests": bench.digests}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="musicking-lab end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "musicking_lab" / "cli.py").is_file():
        print(f"no musicking_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run_workload(name, args.seed, seconds, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
