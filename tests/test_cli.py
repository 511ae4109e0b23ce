import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import performance_session
import musicking_lab
from musicking_lab.cli import (
    RunConfig,
    build_parser,
    cmd_analyze,
    cmd_cluster,
    cmd_compare,
    cmd_validate,
    load_config_file,
    main,
    parse_k_range,
    resolve_config,
    write_json,
)
from musicking_lab.errors import NonFinite, TooFewSessions, UnknownSession
from musicking_lab.ingest import serialize_session

ANALYZE_SECTIONS = {
    "sampling_profile", "delta_profile", "chorus_segments", "summaries",
    "rolling_tracks", "eda_peaks", "eeg_correlation", "skeleton_quality",
    "mean_trajectory", "occupancy_grids",
}


def write_corpus(directory: Path, grid, count=3, **kwargs) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    ids = []
    for seed in range(count):
        session = performance_session(grid, seed=seed, **kwargs)
        (directory / f"{session.session_id}.json").write_text(serialize_session(session))
        ids.append(session.session_id)
    return ids


def config_for(tmp_path: Path, **kwargs) -> RunConfig:
    defaults = dict(dataset_dir=str(tmp_path / "data"),
                    output_dir=str(tmp_path / "out"))
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestConfig:
    def test_k_range_parsing(self):
        assert parse_k_range("2:8") == (2, 8)
        assert parse_k_range("3..5") == (3, 5)
        with pytest.raises(ValueError):
            parse_k_range("five")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text("seed=7\niqr_k = 2.0  # wider fences\n\nsvg=true\n")
        values = load_config_file(cfg)
        assert values == {"seed": "7", "iqr_k": "2.0", "svg": "true"}

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text("seed=7\nwindow_seconds=20\n")
        import argparse
        args = argparse.Namespace(config=str(cfg), seed=9, dataset=None, grid=None,
                                  out=None, confidence_threshold=None, iqr_k=None,
                                  window_seconds=None, k_range=None,
                                  include_nonperformance=False, svg=False, workers=None)
        config = resolve_config(args)
        assert config.seed == 9               # flag wins
        assert config.window_seconds == 20.0  # config file beats default

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MUSICKING_LAB_DATASET", str(tmp_path))
        import argparse
        args = argparse.Namespace(config=None, seed=None, dataset=None, grid=None,
                                  out=None, confidence_threshold=None, iqr_k=None,
                                  window_seconds=None, k_range=None,
                                  include_nonperformance=False, svg=False, workers=None)
        assert resolve_config(args).dataset_dir == str(tmp_path)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(confidence_threshold=2.0).validate()
        with pytest.raises(ValueError):
            RunConfig(k_range=(5, 4)).validate()

    def test_workers_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--dataset", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2

    def test_workers_config_key_is_unknown(self, tmp_path, caplog):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text("workers=2\n")
        with caplog.at_level("ERROR", logger="musicking_lab"):
            assert main(["validate", "--config", str(cfg), "--dataset", str(tmp_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "unknown config key 'workers'" in caplog.text

    def test_removed_workers_option_still_echoes_null(self):
        assert RunConfig().as_dict()["workers"] is None
        assert not hasattr(RunConfig(), "workers")


# (RunConfig field, its flag, the value the flag gives, a config-file line,
# the value that line gives); each boolean key appears once per direction.
SETTING_CASES = [
    ("dataset_dir", ["--dataset", "flag-dir"], "flag-dir", "dataset_dir=file-dir", "file-dir"),
    ("beat_grid_path", ["--grid", "flag.json"], "flag.json", "beat_grid_path=file.json",
     "file.json"),
    ("output_dir", ["--out", "flag-out"], "flag-out", "output_dir=file-out", "file-out"),
    ("confidence_threshold", ["--confidence-threshold", "0.25"], 0.25,
     "confidence_threshold=0.75", 0.75),
    ("iqr_k", ["--iqr-k", "3"], 3.0, "iqr_k=2.5", 2.5),
    ("window_seconds", ["--window-seconds", "5"], 5.0, "window_seconds=20", 20.0),
    ("exclude_nonperformance", ["--include-nonperformance"], False,
     "exclude_nonperformance=No", False),
    ("exclude_nonperformance", ["--include-nonperformance"], False,
     "exclude_nonperformance=YES", True),
    ("seed", ["--seed", "3"], 3, "seed=4", 4),
    ("k_range", ["--k-range", "3:5"], (3, 5), "k_range=2..4", (2, 4)),
    ("svg", ["--svg"], True, "svg=True", True),
    ("svg", ["--svg"], True, "svg=0", False),
]


class TestSettings:
    @pytest.mark.parametrize("field, flag, from_flag, line, from_line", SETTING_CASES,
                             ids=[case[3] for case in SETTING_CASES])
    def test_flag_and_config_key_set_the_same_field(self, tmp_path, field, flag, from_flag,
                                                    line, from_line):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text(line + "\n")

        def resolved(*argv):
            return getattr(resolve_config(build_parser().parse_args(["validate", *argv])), field)

        assert resolved(*flag) == from_flag
        assert resolved("--config", str(cfg)) == from_line
        assert resolved("--config", str(cfg), *flag) == from_flag  # the flag wins

    @pytest.mark.parametrize("line", ["svg=ture", "exclude_nonperformance=2"])
    def test_boolean_key_takes_only_boolean_words(self, tmp_path, caplog, line):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text(line + "\n")
        key, _, word = line.partition("=")
        with caplog.at_level("ERROR", logger="musicking_lab"):
            assert main(["validate", "--config", str(cfg), "--dataset", str(tmp_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert f"config key {key!r}" in caplog.text and repr(word) in caplog.text
        assert not (tmp_path / "out").exists()

    def test_value_that_does_not_read_names_its_key(self, tmp_path, caplog):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text("seed=abc\n")
        argv = ["validate", "--dataset", str(tmp_path), "--out", str(tmp_path / "out")]
        with caplog.at_level("ERROR", logger="musicking_lab"):
            assert main([*argv, "--config", str(cfg)]) == 1
            assert main([*argv, "--seed", "abc"]) == 1
        assert "config key 'seed': invalid literal" in caplog.text
        assert "--seed: invalid literal" in caplog.text

    @pytest.mark.parametrize("command, argv, config_text", [
        (["validate"], ["--window-seconds", "nan"], ""),
        (["validate"], [], "window_seconds=nan\n"),
        (["analyze", "--session", "s"], ["--window-seconds", "nan"], ""),
        (["analyze", "--session", "s"], ["--window-seconds", "inf"], ""),
        (["validate"], ["--iqr-k", "inf"], ""),
        (["validate"], ["--iqr-k", "nan"], ""),
    ], ids=["window-nan", "window-nan-in-file", "analyze-window-nan", "analyze-window-inf",
            "iqr-k-inf", "iqr-k-nan"])
    def test_non_finite_setting_refused_before_writing(self, tmp_path, command, argv,
                                                       config_text):
        data = tmp_path / "data"
        data.mkdir()
        rows = [{"session_id": "s", "backing_track_position": i * 130.0, "sync_chorus_id": 1,
                 "flow": 3, "hardware_bitalino_eda": 400 + i % 7} for i in range(30)]
        (data / "s.json").write_text(json.dumps(rows))
        cfg = tmp_path / "musicking.conf"
        cfg.write_text(config_text)
        proc = _run_module([*command, "--dataset", str(data), "--out", str(tmp_path / "out"),
                            "--config", str(cfg), *argv])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR") and "finite" in lines[0]
        assert not (tmp_path / "out").exists()


class TestCmdValidate:
    def test_clean_corpus_exit_zero(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=3, tail_count=4)
        config = config_for(tmp_path)
        assert cmd_validate(config) == 0
        out = tmp_path / "out" / "validate"
        for session_id in ids:
            report = json.loads((out / f"{session_id}.quality.json").read_text())
            assert report["record_count"] > 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["sessions"]) == 3
        assert summary["skipped"] == []

    def test_empty_dir_exit_zero(self, tmp_path):
        (tmp_path / "data").mkdir()
        config = config_for(tmp_path)
        assert cmd_validate(config) == 0
        summary = json.loads((tmp_path / "out" / "validate" / "summary.json").read_text())
        assert summary["sessions"] == []

    def test_corrupt_file_exit_two(self, tmp_path, grid):
        write_corpus(tmp_path / "data", grid, count=2, tail_count=4)
        (tmp_path / "data" / "broken.json").write_text("{nope")
        config = config_for(tmp_path)
        assert cmd_validate(config) == 2

    def test_missing_dataset_dir_exit_one(self, tmp_path):
        config = config_for(tmp_path)  # data dir never created
        assert cmd_validate(config) == 1

    def test_no_dataset_configured(self, tmp_path):
        assert cmd_validate(RunConfig(output_dir=str(tmp_path / "out"))) == 1


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory, grid):
    tmp_path = tmp_path_factory.mktemp("analyze")
    ids = write_corpus(tmp_path / "data", grid, count=1)
    config = config_for(tmp_path, svg=True)
    assert cmd_analyze(config, ids[0]) == 0
    bundle_path = tmp_path / "out" / "analyze" / ids[0] / "analysis.json"
    return tmp_path, ids[0], json.loads(bundle_path.read_text())


class TestCmdAnalyze:

    def test_all_sections_present(self, analyzed):
        _, _, bundle = analyzed
        assert set(bundle["sections"]) == ANALYZE_SECTIONS

    def test_sampling_and_peaks_have_content(self, analyzed):
        _, _, bundle = analyzed
        sections = bundle["sections"]
        assert sections["sampling_profile"]["rate_hz"] > 0
        assert sections["eda_peaks"]["min_distance_samples"] >= 1
        assert sections["summaries"]["eda"]["count"] > 0

    def test_alignment_table_written(self, analyzed):
        tmp_path, session_id, _ = analyzed
        table = (tmp_path / "out" / "analyze" / session_id / "alignment.csv").read_text()
        assert table.splitlines()[0] == "record_index,t_ms,chorus_id,bar_index,beat_in_bar"

    def test_svgs_written(self, analyzed):
        tmp_path, session_id, _ = analyzed
        out = tmp_path / "out" / "analyze" / session_id
        for name in ("eda_timeseries.svg", "flow_timeseries.svg", "eeg_correlation.svg"):
            assert (out / name).exists()

    def test_unknown_session(self, tmp_path, grid):
        write_corpus(tmp_path / "data", grid, count=1)
        with pytest.raises(UnknownSession):
            cmd_analyze(config_for(tmp_path), "nope")

    def test_all_null_flow_marked_insufficient(self, tmp_path, grid):
        session = performance_session(grid, seed=3)
        stripped = session.records
        from dataclasses import replace
        records = tuple(replace(r, flow=None) for r in stripped)
        from musicking_lab.model import Session
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "noflow.json").write_text(
            serialize_session(Session("noflow", records)))
        config = config_for(tmp_path)
        assert cmd_analyze(config, "noflow") == 0
        bundle = json.loads(
            (tmp_path / "out" / "analyze" / "noflow" / "analysis.json").read_text())
        assert bundle["sections"]["summaries"]["flow"]["status"] == "insufficient data"
        assert bundle["sections"]["summaries"]["eda"]["count"] > 0

    def test_two_record_session(self, tmp_path, grid):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rows = [{"backing_track_position": 0.0, "session_id": "tiny",
                 "hardware_bitalino_eda": 400, "sync_chorus_id": 1},
                {"backing_track_position": 130.0, "session_id": "tiny",
                 "hardware_bitalino_eda": 410, "sync_chorus_id": 1}]
        (data_dir / "tiny.json").write_text(json.dumps(rows))
        config = config_for(tmp_path)
        assert cmd_analyze(config, "tiny") == 0
        bundle = json.loads(
            (tmp_path / "out" / "analyze" / "tiny" / "analysis.json").read_text())
        sections = bundle["sections"]
        assert sections["sampling_profile"]["rate_hz"] > 0
        rolling = sections["rolling_tracks"]
        assert all(v is None for v in rolling["eda_mean"])  # window longer than data

    def test_missing_grid_exit_one(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=1)
        config = config_for(tmp_path, beat_grid_path=str(tmp_path / "nope.json"))
        assert main(["analyze", "--dataset", config.dataset_dir,
                     "--grid", config.beat_grid_path,
                     "--out", config.output_dir, "--session", ids[0]]) == 1


class TestCmdCompare:
    def test_report_shapes(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=4, tail_count=4)
        config = config_for(tmp_path)
        assert cmd_compare(config) == 0
        out = tmp_path / "out" / "compare"
        lines = (out / "eda_summary.csv").read_text().splitlines()
        assert lines[0].split(",") == ["session_id", "count", "mean", "std",
                                       "min", "25%", "50%", "75%", "max"]
        assert len(lines) == 1 + 4
        anova = json.loads((out / "anova.json").read_text())
        assert anova["df_between"] == 3
        box = json.loads((out / "boxplot.json").read_text())
        assert set(box) == set(ids)
        top = json.loads((out / "top_correlated.json").read_text())
        assert 0 < len(top) <= 5
        some = next(iter(top.values()))
        assert {c["chorus_id"] for c in some["choruses"]} <= {1, 2, 3, 4, 5}

    def test_too_few_sessions(self, tmp_path, grid):
        write_corpus(tmp_path / "data", grid, count=1)
        with pytest.raises(TooFewSessions):
            cmd_compare(config_for(tmp_path))

    def test_shifted_means_give_large_f(self, tmp_path, grid):
        data = tmp_path / "data"
        data.mkdir()
        for i, level in enumerate((200.0, 500.0, 800.0)):
            session = performance_session(
                grid, seed=50 + i, session_id=f"lvl{i}",
                eda_levels=(level, level, level), eda_noise=2.0)
            (data / f"lvl{i}.json").write_text(serialize_session(session))
        config = config_for(tmp_path)
        assert cmd_compare(config) == 0
        anova = json.loads((tmp_path / "out" / "compare" / "anova.json").read_text())
        assert anova["f_statistic"] > 1e4
        assert anova["p_value"] < 1e-6


class TestCmdCluster:
    def test_three_regime_eda_selects_three(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=1)
        config = config_for(tmp_path, svg=True)
        assert cmd_cluster(config, ids[0], "eda") == 0
        out = tmp_path / "out" / "cluster" / ids[0]
        result = json.loads((out / "cluster_result.json").read_text())
        assert result["best_k"] == 3
        assert sum(result["sizes"]) == 81
        diagnostics = (out / "diagnostics.csv").read_text().splitlines()
        assert diagnostics[0] == "k,inertia,silhouette"
        assert len(diagnostics) == 1 + (8 - 2 + 1)
        contingency = json.loads((out / "contingency.json").read_text())
        total = sum(v for row in contingency.values() for v in row.values())
        assert total == 81
        assert (out / "silhouette.svg").exists()

    def test_best_k_not_fitted_again(self, tmp_path, grid, monkeypatch):
        from musicking_lab import cluster
        fitted = []
        real = cluster.kmeans_fit

        def counting(X, k, *args, **kwargs):
            fitted.append(k)
            return real(X, k, *args, **kwargs)

        monkeypatch.setattr(cluster, "kmeans_fit", counting)
        ids = write_corpus(tmp_path / "data", grid, count=1)
        assert cmd_cluster(config_for(tmp_path), ids[0], "eda") == 0
        assert fitted == [2, 3, 4, 5, 6, 7, 8]

    def test_flat_eda_warns(self, tmp_path, grid, caplog):
        data = tmp_path / "data"
        data.mkdir()
        session = performance_session(grid, seed=9, session_id="flat",
                                      eda_levels=(400.0,), eda_noise=0.0)
        (data / "flat.json").write_text(serialize_session(session))
        config = config_for(tmp_path)
        with caplog.at_level("WARNING", logger="musicking_lab"):
            assert cmd_cluster(config, "flat", "eda") == 0
        assert any("degenerate" in r.message for r in caplog.records)

    def test_cli_exit_codes_via_main(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=1)
        assert main(["cluster", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out"), "--session", ids[0],
                     "--column", "eda", "--seed", "0"]) == 0
        assert main(["cluster", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out"), "--session", "missing"]) == 1


def write_huge_eda_corpus(directory: Path) -> None:
    """Two sessions of unequal length whose integer EDA is near the double maximum."""
    directory.mkdir(parents=True, exist_ok=True)
    for sid, n in (("a", 40), ("b", 42)):
        rows = [{"session_id": sid, "backing_track_position": i * 130.0,
                 "sync_chorus_id": 1, "flow": 3,
                 "hardware_bitalino_eda": 10**300 * (1 + i % 5)} for i in range(n)]
        (directory / f"{sid}.json").write_text(json.dumps(rows))


def _run_module(argv) -> subprocess.CompletedProcess:
    """The CLI in a real process, so numpy warnings reach stderr as they
    would for a user."""
    env = dict(os.environ, PYTHONPATH=str(Path(musicking_lab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "musicking_lab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestFiniteButHugeValues:
    @pytest.mark.parametrize("command, message", [
        (["compare"], "ANOVA overflows double precision"),
        (["analyze", "--session", "a"], "analysis.json: Out of range float values"),
    ])
    def test_exit_one_with_one_line(self, tmp_path, command, message):
        write_huge_eda_corpus(tmp_path / "data")
        proc = _run_module([*command, "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR") and message in lines[0]

    def test_cluster_prints_no_warning(self, tmp_path):
        # bar_features z-scores infinite feature columns; numpy's invalid-value
        # warnings must not reach the user ahead of the one ERROR line.
        write_huge_eda_corpus(tmp_path / "data")
        proc = _run_module(["cluster", "--session", "a", "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines()[-1].startswith("ERROR")

    def test_analyze_on_intervals_a_few_ulps_apart(self, tmp_path):
        # The sampling-interval histogram cannot split intervals near 1e300
        # that differ by an ulp into 20 bins.
        data = tmp_path / "data"
        data.mkdir()
        rows, position = [], 0.0
        for i in range(30):
            rows.append({"session_id": "h", "backing_track_position": position,
                         "sync_chorus_id": 1, "flow": 3, "hardware_bitalino_eda": 400})
            position += 1e300 if i % 2 == 0 else 1.0000000000000002e300
        (data / "h.json").write_text(json.dumps(rows))
        proc = _run_module(["analyze", "--session", "h", "--dataset", str(data),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR") and "Too many bins" in lines[0]

    def test_via_main(self, tmp_path):
        write_huge_eda_corpus(tmp_path / "data")
        argv = ["--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        assert main(["compare", *argv]) == 1
        assert main(["analyze", *argv, "--session", "b"]) == 1

    def test_write_json_names_the_file(self, tmp_path):
        with pytest.raises(NonFinite, match="bad.json"):
            write_json(tmp_path / "bad.json", {"x": float("inf")})
        assert not (tmp_path / "bad.json").exists()
