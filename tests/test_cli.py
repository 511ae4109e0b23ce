import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import performance_session
import musicking_lab
from musicking_lab.cli import (
    _COMMAND_FLAGS,
    _COMMANDS,
    _SETTINGS,
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
from musicking_lab.model import EEG_CHANNELS, SKELETON_PARTS

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


def write_rows(directory: Path, session_id: str, n: int, **columns) -> None:
    """A session file of n records 130 ms apart; each keyword gives a
    column's per-record values, None for null."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = [{"backing_track_position": 130.0 * i, "session_id": session_id,
             **{key: values[i] for key, values in columns.items()}} for i in range(n)]
    (directory / f"{session_id}.json").write_text(json.dumps(rows))


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

    def test_config_line_without_equals_names_file_and_line(self, tmp_path):
        cfg = tmp_path / "musicking.conf"
        cfg.write_text("seed=7\n# a comment\nsvg  # no value\n")
        with pytest.raises(ValueError,
                           match=r"musicking\.conf:3: expected key=value, got 'svg  # no value'"):
            load_config_file(cfg)

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

    @pytest.mark.parametrize("argv, config_text", [(["--seed", "-1"], ""), ([], "seed=-1\n")],
                             ids=["flag", "config"])
    def test_negative_seed_refused_before_writing(self, tmp_path, grid, argv, config_text):
        (session_id,) = write_corpus(tmp_path / "data", grid, count=1, tail_count=4)
        cfg = tmp_path / "musicking.conf"
        cfg.write_text(config_text)
        proc = _run_module(["cluster", "--session", session_id, "--dataset",
                            str(tmp_path / "data"), "--out", str(tmp_path / "out"),
                            "--config", str(cfg), *argv])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.replace(str(tmp_path), "<tmp>").strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR")
        assert "seed" in lines[0] and "-1" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k_range", ["1:3", "0:3"])
    def test_k_range_below_two_refused_before_writing(self, tmp_path, grid, k_range):
        (session_id,) = write_corpus(tmp_path / "data", grid, count=1, tail_count=4)
        proc = _run_module(["cluster", "--session", session_id, "--dataset",
                            str(tmp_path / "data"), "--out", str(tmp_path / "out"),
                            "--k-range", k_range])
        assert proc.returncode == 1
        lo, hi = k_range.split(":")
        assert proc.stderr == f"ERROR k-range ({lo}, {hi}) starts below 2 clusters\n"
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

    def test_missing_dataset_dir_exit_one(self, tmp_path, caplog):
        with caplog.at_level("INFO", logger="musicking_lab"):
            assert main(["validate", "--dataset", str(tmp_path / "data"),  # never created
                         "--out", str(tmp_path / "out")]) == 1
        assert [record.levelname for record in caplog.records] == ["ERROR"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("session_id", ["../escaped/x", "nul\0"])
    def test_id_that_is_not_a_file_name_writes_nothing_outside(self, tmp_path, grid, session_id):
        ids = write_corpus(tmp_path / "data", grid, count=2, tail_count=4)
        rows = json.loads((tmp_path / "data" / f"{ids[0]}.json").read_text())
        for row in rows:
            row["session_id"] = session_id
        (tmp_path / "data" / f"{ids[0]}.json").write_text(json.dumps(rows))
        assert main(["validate", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 2
        assert {path.relative_to(tmp_path / "out").as_posix()
                for path in (tmp_path / "out").rglob("*")} == \
            {"validate", f"validate/{ids[1]}.quality.json", "validate/summary.json"}

    def test_no_dataset_configured(self, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("MUSICKING_LAB_DATASET", raising=False)
        with caplog.at_level("INFO", logger="musicking_lab"):
            assert main(["validate", "--out", str(tmp_path / "out")]) == 1
        assert [(record.levelname, record.getMessage()) for record in caplog.records] == \
            [("ERROR", "validate needs --dataset (or MUSICKING_LAB_DATASET)")]
        assert not (tmp_path / "out").exists()


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

    def test_all_null_flow_draws_no_flow_histogram(self, tmp_path):
        write_rows(tmp_path / "data", "noflow", 30, flow=[None] * 30,
                   hardware_bitalino_eda=[400 + i % 7 for i in range(30)])
        assert cmd_analyze(config_for(tmp_path, svg=True), "noflow") == 0
        out = tmp_path / "out" / "analyze" / "noflow"
        assert (out / "eda_histogram.svg").exists() and (out / "flow_timeseries.svg").exists()
        assert not (out / "flow_histogram.svg").exists()

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

    def test_no_eda_and_no_sampling_rate(self, tmp_path):
        write_rows(tmp_path / "data", "noeda", 5)
        write_rows(tmp_path / "data", "single", 1, hardware_bitalino_eda=[400])
        config = config_for(tmp_path)

        def sections(session_id):
            assert cmd_analyze(config, session_id) == 0
            bundle = tmp_path / "out" / "analyze" / session_id / "analysis.json"
            return json.loads(bundle.read_text())["sections"]

        noeda = sections("noeda")
        assert noeda["summaries"]["eda"]["status"] == "insufficient data"
        assert noeda["eda_peaks"] == {"status": "insufficient data", "reason": "no EDA values"}
        assert noeda["rolling_tracks"]["window_samples"] >= 1
        single = sections("single")
        unavailable = {"status": "insufficient data", "reason": "sampling rate unavailable"}
        assert single["sampling_profile"]["status"] == "insufficient data"
        assert single["rolling_tracks"] == single["eda_peaks"] == unavailable

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

    def test_include_nonperformance_keeps_every_record(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=2)

        def counts(*flags):
            assert main(["compare", "--dataset", str(tmp_path / "data"),
                         "--out", str(tmp_path / "out"), *flags]) == 0
            lines = (tmp_path / "out" / "compare" / "eda_summary.csv").read_text().splitlines()
            return {line.split(",")[0]: int(line.split(",")[1]) for line in lines[1:]}

        lengths = {sid: len(json.loads((tmp_path / "data" / f"{sid}.json").read_text()))
                   for sid in ids}
        assert counts("--include-nonperformance") == lengths
        # the 20 lead-in (chorus 0) and 59 tail (chorus 999) records
        assert counts() == {sid: n - 79 for sid, n in lengths.items()}

    def test_insufficient_data_sections(self, tmp_path):
        data = tmp_path / "data"
        flow = [40 + i for i in range(10)]
        write_rows(data, "full", 10, hardware_bitalino_eda=[400 + i * i for i in range(10)],
                   flow=flow, sync_chorus_id=[1] * 10)
        write_rows(data, "noeda", 10, flow=flow, sync_chorus_id=[1] * 10)
        write_rows(data, "nochorus", 10, hardware_bitalino_eda=[400 + i % 3 for i in range(10)],
                   flow=flow)
        write_rows(data, "single", 10, hardware_bitalino_eda=[410] + [None] * 9, flow=flow,
                   sync_chorus_id=[1] * 10)
        assert cmd_compare(config_for(tmp_path)) == 0
        out = tmp_path / "out" / "compare"
        lines = (out / "eda_summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["full", "nochorus", "single"]
        box = json.loads((out / "boxplot.json").read_text())
        assert box["single"] == {"status": "insufficient data"}
        assert "median" in box["full"]
        assert json.loads((out / "anova.json").read_text()) == {
            "status": "insufficient data", "reason": "group 2 has 1 non-null values, needs >= 2"}
        top = json.loads((out / "top_correlated.json").read_text())
        assert set(top) == {"full", "nochorus"}
        assert top["nochorus"]["choruses"] == []
        assert [c["chorus_id"] for c in top["full"]["choruses"]] == [1]

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

    def test_extras_column_clusters_as_its_values(self, tmp_path, grid):
        from dataclasses import replace
        from musicking_lab.model import Session
        session = performance_session(grid, seed=0, session_id="extra")
        records = [replace(r, extras={"pulse": r.eda}) for r in session.records]
        data = tmp_path / "data"
        data.mkdir()
        (data / "extra.json").write_text(serialize_session(Session("extra", records)))
        results = {}
        for column in ("pulse", "eda"):
            config = config_for(tmp_path, output_dir=str(tmp_path / column))
            assert cmd_cluster(config, "extra", column) == 0
            path = tmp_path / column / "cluster" / "extra" / "cluster_result.json"
            results[column] = json.loads(path.read_text())
        assert results["pulse"].pop("column") == "pulse"
        assert results["eda"].pop("column") == "eda"
        assert results["pulse"] == results["eda"]

    def test_cli_exit_codes_via_main(self, tmp_path, grid):
        ids = write_corpus(tmp_path / "data", grid, count=1)
        assert main(["cluster", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out"), "--session", ids[0],
                     "--column", "eda", "--seed", "0"]) == 0
        assert main(["cluster", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out"), "--session", "missing"]) == 1

    def test_k_range_clamped_only_when_a_k_is_left(self, tmp_path):
        # 100 records 130 ms apart cover 4 bars of the bundled grid, so k <= 3.
        write_rows(tmp_path / "data", "short", 100, sync_chorus_id=[1] * 100,
                   hardware_bitalino_eda=[400 + (i * 7) % 13 for i in range(100)])
        argv = ["cluster", "--session", "short", "--dataset", str(tmp_path / "data")]
        clamped = _run_module([*argv, "--out", str(tmp_path / "clamped"), "--k-range", "3:8"])
        assert clamped.returncode == 0
        assert clamped.stderr.splitlines()[0] == \
            "WARNING k-range upper bound clamped to 3 (only 4 bars)"
        diagnostics = tmp_path / "clamped" / "cluster" / "short" / "diagnostics.csv"
        assert [line.split(",")[0] for line in diagnostics.read_text().splitlines()] == ["k", "3"]
        refused = _run_module([*argv, "--out", str(tmp_path / "refused"), "--k-range", "4:8"])
        assert refused.returncode == 1
        assert refused.stderr == "ERROR k range [4, 8] invalid for 4 rows\n"
        assert not (tmp_path / "refused").exists()


def write_huge_corpus(directory: Path, column: str = "hardware_bitalino_eda") -> None:
    """Two sessions of unequal length whose integer ``column`` is near the
    double maximum (and whose EDA is 400 otherwise)."""
    directory.mkdir(parents=True, exist_ok=True)
    for sid, n in (("a", 40), ("b", 42)):
        rows = [{"session_id": sid, "backing_track_position": i * 130.0,
                 "sync_chorus_id": 1, "flow": 3, "hardware_bitalino_eda": 400,
                 column: 10**300 * (1 + i % 5)} for i in range(n)]
        (directory / f"{sid}.json").write_text(json.dumps(rows))


def _run_module(argv, **environ) -> subprocess.CompletedProcess:
    """The CLI in a real process, so numpy warnings reach stderr as they
    would for a user; ``environ`` adds to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(musicking_lab.__file__).parents[1]), **environ)
    return subprocess.run([sys.executable, "-m", "musicking_lab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


# Each command with the flags it needs besides the dataset.
_COMMAND_ARGV = [["validate"], ["compare"], ["analyze", "--session", "s"],
                 ["cluster", "--session", "s"]]


class TestDatasetRefusedBeforeWriting:
    """``main`` refuses a missing or unreadable dataset before a command writes."""

    @pytest.mark.parametrize("command", _COMMAND_ARGV, ids=lambda argv: argv[0])
    def test_no_dataset_configured(self, tmp_path, monkeypatch, command):
        monkeypatch.delenv("MUSICKING_LAB_DATASET", raising=False)
        proc = _run_module([*command, "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == f"ERROR {command[0]} needs --dataset (or MUSICKING_LAB_DATASET)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", _COMMAND_ARGV, ids=lambda argv: argv[0])
    def test_dataset_directory_missing(self, tmp_path, command):
        proc = _run_module([*command, "--dataset", str(tmp_path / "nope"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR ")
        assert str(tmp_path / "nope") in lines[0]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", _COMMAND_ARGV, ids=lambda argv: argv[0])
def test_out_that_is_a_file_is_refused_after_the_work(tmp_path, command):
    # Only the writer creates --out, so this is the one refusal that comes late.
    for sid in ("s", "t"):
        write_rows(tmp_path / "data", sid, 400, sync_chorus_id=[1] * 400,
                   hardware_bitalino_eda=[400 + (i * 7) % 13 for i in range(400)])
    (tmp_path / "out").write_text("a file\n")
    proc = _run_module([*command, "--dataset", str(tmp_path / "data"),
                        "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ")
    assert str(tmp_path / "out") in lines[0]
    assert (tmp_path / "out").read_text() == "a file\n"


class TestBadBeatGrid:
    @pytest.mark.parametrize("field, literal, message", [
        ("audio_sample_rate_hz", "1e400", "beat grid field audio_sample_rate_hz"),
        ("duration_s", "1" + "0" * 5000, "not valid JSON"),
        ("duration_s", "NaN", "non-finite literal NaN"),
        (None, "[" * 100_000, "not valid JSON"),
    ], ids=["rate overflows", "integer too long", "NaN literal", "nested too deeply"])
    def test_exit_one_with_one_line(self, tmp_path, grid, field, literal, message):
        write_corpus(tmp_path / "data", grid, count=1, tail_count=4)
        path = tmp_path / "grid.json"
        if field is None:
            path.write_text(literal)
        else:
            payload = {"tempo_bpm": grid.tempo_bpm, "duration_s": grid.duration_s,
                       "audio_sample_rate_hz": grid.audio_sample_rate_hz,
                       "beats_s": list(grid.beat_times), "bars_s": list(grid.bar_times),
                       field: "HERE"}
            path.write_text(json.dumps(payload).replace('"HERE"', literal))
        proc = _run_module(["analyze", "--session", "synth0000", "--grid", str(path),
                            "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR") and message in lines[0]
        assert str(path) in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "cluster"])
    @pytest.mark.parametrize("field, value, message", [
        ("beats_s", [], "beat_times is empty"),
        ("tempo_bpm", 0, "tempo_bpm must be > 0"),
        ("duration_s", -3, "duration_s must be > 0"),
        ("audio_sample_rate_hz", 0, "audio_sample_rate_hz must be > 0"),
    ], ids=["no beats", "zero tempo", "negative duration", "zero sample rate"])
    def test_unalignable_grid_is_refused(self, tmp_path, grid, command, field, value, message):
        write_corpus(tmp_path / "data", grid, count=1, tail_count=4)
        payload = {"tempo_bpm": grid.tempo_bpm, "duration_s": grid.duration_s,
                   "audio_sample_rate_hz": grid.audio_sample_rate_hz,
                   "beats_s": list(grid.beat_times), "bars_s": list(grid.bar_times)}
        payload[field] = value
        if field == "beats_s":
            payload["bars_s"] = []
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        proc = _run_module([command, "--session", "synth0000", "--grid", str(path),
                            "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR")
        assert str(path) in lines[0] and message in lines[0]
        assert not (tmp_path / "out").exists()


_TOO_MANY_BINS = ("histogram: Too many bins for data range. "
                  "Cannot create 20 finite-sized bins.")


class TestFiniteButHugeValues:
    # describe refuses the EDA sums, before ANOVA and the encoder.  The EEG
    # rolling variance overflows where all-null windows are ordinary, so
    # there the encoder refuses analysis.json, before alignment.csv exists.
    @pytest.mark.parametrize("command, column, message", [
        (["compare"], "hardware_bitalino_eda", "describe overflows double precision"),
        (["analyze", "--session", "a"], "hardware_bitalino_eda",
         "describe overflows double precision"),
        (["analyze", "--session", "a", "--window-seconds", "1"], "hardware_brainbit_eeg_t3",
         "analysis.json: Out of range float values"),
    ], ids=["compare", "analyze", "analyze EEG variance"])
    def test_exit_one_with_one_line(self, tmp_path, command, column, message):
        write_huge_corpus(tmp_path / "data", column)
        proc = _run_module([*command, "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR") and message in lines[0]
        assert not (tmp_path / "out").exists()

    def test_compare_whose_fences_overflow(self, tmp_path):
        # describe refuses the sum of the EDA before its fences are taken.
        write_rows(tmp_path / "data", "a", 4, sync_chorus_id=[1] * 4,
                   hardware_bitalino_eda=[-1.7e308, -1.7e308, 1.7e308, 1.7e308])
        write_rows(tmp_path / "data", "b", 4, sync_chorus_id=[1] * 4)
        proc = _run_module(["compare", "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == "ERROR describe overflows double precision\n"
        assert not (tmp_path / "out").exists()

    def test_validate_names_the_session_whose_fences_overflow(self, tmp_path):
        write_rows(tmp_path / "data", "a", 4, sync_chorus_id=[1] * 4)
        write_rows(tmp_path / "data", "b", 4, sync_chorus_id=[1] * 4,
                   hardware_bitalino_eda=[-1.7e308, -1.7e308, 1.7e308, 1.7e308])
        proc = _run_module(["validate", "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr == "ERROR session 'b': IQR fences overflow double precision\n"
        assert not (tmp_path / "out").exists()

    def test_cluster_prints_no_warning(self, tmp_path):
        # bar_features' per-bar sums overflow; no numpy warning may reach the
        # user ahead of the one ERROR line.
        write_huge_corpus(tmp_path / "data")
        proc = _run_module(["cluster", "--session", "a", "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines()[-1].startswith("ERROR")
        assert not (tmp_path / "out").exists()

    def test_analyze_on_intervals_a_few_ulps_apart(self, tmp_path):
        # The sampling-interval histogram cannot split intervals near 1e300
        # that differ by an ulp into 20 bins: too flat, so the section holds
        # the insufficient-data marker and the run goes on.
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
        assert proc.returncode == 0
        assert "WARNING" not in proc.stderr and "ERROR" not in proc.stderr
        sections = json.loads((tmp_path / "out" / "analyze" / "h" / "analysis.json")
                              .read_text())["sections"]
        assert sections["sampling_profile"] == {"status": "insufficient data",
                                                "reason": _TOO_MANY_BINS}

    @pytest.mark.parametrize("clock, message", [
        ((-1.7e308, 1.7e308), "position intervals overflow double precision"),
        ((0.0, 5e-324, 1e-323), "sampling rate overflows double precision "
                                "(mean interval 5e-324 ms)"),
    ], ids=["interval beyond the largest double", "subnormal intervals"])
    def test_analyze_on_a_clock_it_cannot_read(self, tmp_path, clock, message):
        # Finite and strictly increasing, so ingest takes it.
        data = tmp_path / "data"
        data.mkdir()
        rows = [{"session_id": "w", "backing_track_position": t} for t in clock]
        (data / "w.json").write_text(json.dumps(rows))
        proc = _run_module(["analyze", "--session", "w", "--dataset", str(data),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == [f"ERROR {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seconds", ["1e308", "1e300"])
    def test_analyze_window_of_huge_seconds(self, tmp_path, grid, seconds):
        # 1e308 s overflows the sample count at any rate near 7.7 Hz;
        # 1e300 s does not, and gives a window longer than the session.
        session_id = write_corpus(tmp_path / "data", grid, count=1)[0]
        proc = _run_module(["analyze", "--session", session_id, "--window-seconds", seconds,
                            "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
        assert "Traceback" not in proc.stderr
        if seconds == "1e308":
            assert proc.returncode == 1
            assert re.fullmatch(r"ERROR 1e\+308 s at [0-9.]+ Hz is not a finite sample count\n",
                                proc.stderr)
            assert not (tmp_path / "out").exists()
            return
        assert proc.returncode == 0 and proc.stderr.startswith("INFO analyzed session")
        bundle = json.loads((tmp_path / "out" / "analyze" / session_id / "analysis.json")
                            .read_text())
        tracks = bundle["sections"]["rolling_tracks"]
        assert tracks.pop("window_samples") > 10**300
        assert set(tracks) == {"eda_mean", "eeg_t3_variance", "eeg_t4_variance",
                               "eeg_o1_variance", "eeg_o2_variance"}
        assert all(value is None for track in tracks.values() for value in track)

    def test_via_main(self, tmp_path):
        write_huge_corpus(tmp_path / "data")
        argv = ["--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        assert main(["compare", *argv]) == 1
        assert main(["analyze", *argv, "--session", "b"]) == 1

    def test_write_json_names_the_file(self, tmp_path):
        with pytest.raises(NonFinite, match="bad.json"):
            write_json(tmp_path / "bad.json", {"x": float("inf")})
        assert not (tmp_path / "bad.json").exists()


def write_near_max_corpus(directory: Path, family: str) -> None:
    """Two sessions whose ``family`` of columns lies near +-1.7e308: the EDA
    and EEG levels as positive integers, sync_delta and the skeleton x and y
    with alternating signs."""
    columns = {"eda": ["hardware_bitalino_eda"],
               "eeg": [f"hardware_brainbit_eeg_{ch}" for ch in EEG_CHANNELS],
               "sync_delta": ["sync_delta"],
               "skeleton": [f"hardware_skeleton_{part}_{axis}"
                            for part in SKELETON_PARTS for axis in ("x", "y")]}[family]
    levels = family in ("eda", "eeg")
    directory.mkdir(parents=True)
    for sid, n in (("s", 120), ("t", 122)):
        rows = []
        for i in range(n):
            huge = 1.7e308 * (1 - i % 5 / 10)
            rows.append({"session_id": sid, "backing_track_position": 130.0 * i,
                         "sync_chorus_id": 1, "flow": 3, "hardware_bitalino_eda": 400 + i % 7,
                         **{f"hardware_skeleton_{part}_confidence": 0.9
                            for part in SKELETON_PARTS if family == "skeleton"},
                         **{key: int(huge) if levels else huge * (-1) ** i for key in columns}})
        (directory / f"{sid}.json").write_text(json.dumps(rows))


class TestNearTheDoubleMaximum:
    """Each command on a column family near the double maximum writes its
    files or refuses in one line; no numpy warning reaches the user."""

    @pytest.mark.parametrize("family", ["eda", "eeg", "sync_delta", "skeleton"])
    @pytest.mark.parametrize("command", [["validate"], ["compare"],
                                         ["analyze", "--session", "s", "--svg"],
                                         ["cluster", "--session", "s"]],
                             ids=lambda argv: argv[0])
    def test_written_or_refused_in_one_line(self, tmp_path, command, family):
        write_near_max_corpus(tmp_path / "data", family)
        proc = _run_module([*command, "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.returncode in (0, 1)
        if proc.returncode == 1:
            lines = proc.stderr.splitlines()
            assert [line for line in lines if line.startswith("ERROR")] == lines[-1:]
            assert not (tmp_path / "out").exists()


class TestShortSessions:
    """A session that ``validate`` accepts is never refused by ``analyze``:
    a section it is too short or too flat for holds the insufficient-data
    marker."""

    @pytest.mark.parametrize("section, columns", [
        # Intervals 130.1, 130.1, 130.09999999999997 ms: a few ulps apart.
        ("sampling_profile", {"backing_track_position": [i * 130.1 for i in range(4)]}),
        ("delta_profile", {"sync_delta": [130.1, 130.10000000000002] * 20}),
    ], ids=["clock", "sync_delta"])
    def test_values_a_few_ulps_apart(self, tmp_path, section, columns):
        n = len(next(iter(columns.values())))
        write_rows(tmp_path / "data", "a", n, sync_chorus_id=[1] * n,
                   hardware_bitalino_eda=[400 + i % 3 for i in range(n)], **columns)
        proc = _run_module(["analyze", "--session", "a", "--dataset", str(tmp_path / "data"),
                            "--out", str(tmp_path / "out")])
        assert proc.returncode == 0
        assert "WARNING" not in proc.stderr and "ERROR" not in proc.stderr
        sections = json.loads((tmp_path / "out" / "analyze" / "a" / "analysis.json")
                              .read_text())["sections"]
        assert sections[section] == {"status": "insufficient data", "reason": _TOO_MANY_BINS}

    @settings(max_examples=100, deadline=None)
    @given(start=st.floats(0.0, 3e5), step=st.floats(1.0, 1000.0), data=st.data())
    def test_a_session_validate_accepts_is_analyzed(self, start, step, data):
        n = data.draw(st.integers(2, 12))
        level = st.none() | st.integers(0, 1000)
        nose = st.none() | st.just((-1.0, -1.0, 0.0)) | st.tuples(
            st.floats(0.0, 1000.0), st.floats(0.0, 1000.0), st.floats(0.0, 1.0))
        rows, position = [], start
        for _ in range(n):
            row = {"session_id": "s", "backing_track_position": position,
                   "sync_chorus_id": data.draw(st.sampled_from([0, 1, 2, 999])),
                   "sync_delta": data.draw(st.none() | st.floats(0.0, 500.0)),
                   "flow": data.draw(level), "hardware_bitalino_eda": data.draw(level),
                   **{f"hardware_brainbit_eeg_{ch}": data.draw(level) for ch in EEG_CHANNELS}}
            point = data.draw(nose)
            if point is not None:
                row.update(zip(("hardware_skeleton_nose_x", "hardware_skeleton_nose_y",
                                "hardware_skeleton_nose_confidence"), point))
            rows.append(row)
            position += step
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "data").mkdir()
            (Path(tmp) / "data" / "s.json").write_text(json.dumps(rows))
            common = ["--dataset", str(Path(tmp) / "data"), "--out", str(Path(tmp) / "out")]
            assert main(["validate", *common]) == 0
            assert main(["analyze", "--session", "s", "--svg", *common]) == 0


# Python's own encoding under the C locale is ASCII: no UTF-8 mode and no
# coercion to C.UTF-8.
_C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


class TestCLocale:
    """Data files are UTF-8 whatever the locale."""

    @pytest.fixture
    def dataset(self, tmp_path, grid):
        data = tmp_path / "data"
        write_corpus(data, grid, count=1)
        session = performance_session(grid, seed=1, session_id="séance")
        (data / "seance.json").write_text(serialize_session(session), encoding="utf-8")
        return data

    def test_compare_writes_utf8(self, tmp_path, dataset):
        proc = _run_module(["compare", "--dataset", str(dataset), "--out", str(tmp_path / "out")],
                           **_C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        table = (tmp_path / "out" / "compare" / "eda_summary.csv").read_bytes()
        assert "séance".encode("utf-8") in table

    def test_validate_refuses_a_file_name_it_cannot_encode(self, tmp_path, dataset):
        proc = _run_module(["validate", "--dataset", str(dataset), "--out", str(tmp_path / "out")],
                           **_C_LOCALE)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR"), proc.stderr
        assert "quality.json" in lines[0]  # the refusal names the file
        assert not (tmp_path / "out").exists()  # every path is checked before any is written

    def test_config_file_read_as_utf8(self, tmp_path, dataset):
        config = tmp_path / "run.cfg"
        config.write_text(f"# café\ndataset_dir = {dataset}\n", encoding="utf-8")
        proc = _run_module(["compare", "--config", str(config), "--out", str(tmp_path / "out")],
                           **_C_LOCALE)
        assert proc.returncode == 0, proc.stderr


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["validate", "--session", "x"],
        ["compare", "--column", "eda"],
        ["validate", "--column", "eda"],
        ["analyze", "--column", "eda", "--session", "x"],
        ["analyze"],
        ["cluster"],
        ["cluster", "--column", "eda"],
        ["unknown"],
        [],
    ], ids=["validate-session", "compare-column", "validate-column", "analyze-column",
            "analyze-no-session", "cluster-no-session", "cluster-column-only",
            "unknown-command", "no-command"])
    def test_usage_error_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: musicking-lab" in capsys.readouterr().err

    def test_cluster_column_defaults_to_eda(self):
        args = build_parser().parse_args(["cluster", "--session", "x"])
        assert (args.command, args.session, args.column) == ("cluster", "x", "eda")

    def test_session_and_column_reach_their_command(self):
        args = build_parser().parse_args(["cluster", "--session", "x", "--column", "flow"])
        assert (args.session, args.column) == ("x", "flow")
        args = build_parser().parse_args(["analyze", "--session", "y"])
        assert args.session == "y" and not hasattr(args, "column")

    # The sha256 of each --help text at an 80-column terminal: every
    # command, flag and help string of the parser, pinned byte for byte.
    HELP_DIGESTS = {
        "":
            "713f74a0eb8be19a79f63272be350795cd77912967494398715ac504047a59aa",
        "analyze":
            "6cfa6dd7ff38e629db4993b9a01954c3ee10bc35e21ee2931d6c8c6a2a5fc6bb",
        "cluster":
            "366ae962ecbe7b5dcedeb1c218849215f01e4d8d29509bedc2ff541b15245430",
        "compare":
            "086cc608aceae59e0cba838980a87225a1418f10f3184851c393713b825dc3f5",
        "validate":
            "1d27adfacbba0b2795b45f555181d0f87f0956bbd7ac36baacbab6b5becc7d99",
    }

    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command.split(), "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.HELP_DIGESTS[command]


def test_readme_cli_section_names_every_command_and_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    for command in _COMMANDS:
        assert f"musicking-lab {command}" in section
    for flag in ["--config", *(flag for _, flag, _, _ in _SETTINGS), *_COMMAND_FLAGS]:
        assert re.search(rf"{flag}(?![\w-])", section), flag


# The benchmark runs no `cluster --svg`, so no golden digest covers this chart.
SILHOUETTE_DIGEST = "5854e4fca8f1b97acbd1a986927a62005085a266b1ce62a254e78f6ad97b80d2"


def test_silhouette_chart_bytes_are_pinned(tmp_path, grid):
    ids = write_corpus(tmp_path / "data", grid, count=1)
    assert cmd_cluster(config_for(tmp_path, svg=True, seed=3), ids[0]) == 0
    text = (tmp_path / "out" / "cluster" / ids[0] / "silhouette.svg").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == SILHOUETTE_DIGEST


# Every command, then the library calls of a session read, in one fresh
# process; prints the steps after which ``numpy.ma`` was loaded.
_NUMPY_MA_PROBE = """
import sys
from pathlib import Path
from musicking_lab import analytics, cli, cluster, ingest, model, quality, timing

data, out = sys.argv[1:]
loaded = []
for argv in (["validate"], ["compare"], ["analyze", "--svg", "--session", "synth0000"],
             ["cluster", "--session", "synth0000"]):
    cli.main([*argv, "--dataset", data, "--out", out])
    loaded += argv[:1] if "numpy.ma" in sys.modules else []
session = ingest.load_session(Path(data) / "synth0000.json")
model.validate_session(session)
flow = model.column_values(session, "flow")
quality.impute_median(flow)
filled = quality.interpolate_gaps(flow, 8)
window = analytics.seconds_to_samples(10.0, timing.infer_sampling_rate(session).rate_hz)
analytics.windowed_correlation(model.column_values(session, "eda"), filled, window)
cluster.bar_features(session, ingest.load_bundled_beat_grid(), "eeg_t3")
timing.estimate_tempo(ingest.load_bundled_beat_grid())
loaded += ["library"] if "numpy.ma" in sys.modules else []
print(loaded)
"""


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_on_linux() -> bool:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return (sys.platform == "linux" and "openblas" in blas.lower()
            and len(os.sched_getaffinity(0)) >= 2)


# A thread count read from /proc, of a pool OpenBLAS starts only with 2 or
# more CPUs to run on.
_COUNTS_OPENBLAS_THREADS = pytest.mark.skipif(
    not _openblas_on_linux(), reason="needs Linux, numpy on OpenBLAS and 2 or more CPUs")


def _run_probe(probe: str, *args: str, **environ) -> list:
    """The last stdout line of ``probe`` as JSON, run in a fresh process
    with none of OpenBLAS's thread variables but those in ``environ``."""
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_THREAD_VARIABLES}
    env.update(environ, PYTHONPATH=str(Path(musicking_lab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Runs the code given as its first argument and prints the process's thread
# count and whether ``os.environ`` is as it was before the code ran.
_THREADS_PROBE = """
import json, os, sys
before = dict(os.environ)
exec(sys.argv[1])
print(json.dumps([len(os.listdir("/proc/self/task")), dict(os.environ) == before]))
"""
# The package first, as a command's process loads it; then the reprs of
# correlations over 20,000 samples, longer than OpenBLAS leaves to one thread.
_CORRELATION_PROBE = """
import json
import musicking_lab
import numpy as np
from musicking_lab import analytics
x, y, z = np.random.default_rng(0).normal(size=(3, 20_000)).cumsum(axis=1).tolist()
matrix = analytics.correlation_matrix({"x": x, "y": y, "z": z})
print(json.dumps([repr(analytics.correlate(x, y)), repr(matrix.values)]))
"""


class TestFreshProcess:
    def test_numpy_ma_is_never_imported(self, tmp_path, grid):
        # numpy's percentile and median import numpy.ma on first use, an
        # import that every command's process would pay for.
        write_corpus(tmp_path / "data", grid, count=3)
        # A 0-record session: np.isin on its empty columns calls np.unique.
        (tmp_path / "data" / "empty.json").write_text("[]")
        env = dict(os.environ, PYTHONPATH=str(Path(musicking_lab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, str(tmp_path / "data"),
                               str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_long_correlations_do_not_depend_on_the_thread_count(self):
        # OpenBLAS splits a long dot product across its threads, which
        # changes how the sum rounds.
        default = _run_probe(_CORRELATION_PROBE)
        assert default == _run_probe(_CORRELATION_PROBE, OPENBLAS_NUM_THREADS="1")

    @_COUNTS_OPENBLAS_THREADS
    def test_import_loads_one_blas_thread(self):
        assert _run_probe(_THREADS_PROBE, "import musicking_lab") == [1, True]

    @_COUNTS_OPENBLAS_THREADS
    def test_numpy_imported_first_keeps_its_threads(self):
        threads, _ = _run_probe(_THREADS_PROBE, "import numpy")
        assert _run_probe(_THREADS_PROBE, "import numpy; import musicking_lab") == [threads, True]

    @_COUNTS_OPENBLAS_THREADS
    @pytest.mark.parametrize("variable, value", [
        ("OPENBLAS_NUM_THREADS", "2"), ("GOTO_NUM_THREADS", "2"), ("OMP_NUM_THREADS", "2"),
        ("OPENBLAS_NUM_THREADS", ""),
    ])
    def test_a_thread_variable_the_user_set_wins(self, variable, value):
        threads, _ = _run_probe(_THREADS_PROBE, "import numpy", **{variable: value})
        assert threads > 1
        assert _run_probe(_THREADS_PROBE, "import musicking_lab", **{variable: value}) == [
            threads, True]


# Runs the code given as its first argument, with the rest as ``sys.argv``,
# and prints the package's modules whose bodies ran.  A submodule the
# package has only registered is still importlib's lazy module type;
# running its body makes it a plain module.
_LOADED_PROBE = """
import json, sys, types
code, sys.argv = sys.argv[1], sys.argv[1:]
exec(code)
print(json.dumps([name for name, module in sys.modules.items()
                  if name.startswith("musicking_lab") and type(module) is types.ModuleType]))
"""
# The benchmark's set-up probe: import the package and read the bundled grid.
_SETUP_CODE = ("import musicking_lab; from musicking_lab.ingest import load_bundled_beat_grid; "
               "load_bundled_beat_grid()")
_CLI_CODE = "from musicking_lab import cli; cli.main(sys.argv[1:])"


def _loaded_modules(code: str, *args: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(musicking_lab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, code, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name.removeprefix("musicking_lab.") for name in names}


class TestModulesLoaded:
    """A fresh process runs the bodies of only the modules it calls."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory, grid):
        data = tmp_path_factory.mktemp("lazy") / "data"
        write_corpus(data, grid, count=3)
        return data

    def test_setup_probe(self):
        assert _loaded_modules(_SETUP_CODE) <= {"musicking_lab", "model", "errors",
                                                "ingest", "data"}

    @pytest.mark.parametrize("argv, unused", [
        (["validate"], {"analytics", "cluster", "stats", "svg", "timing"}),
        (["compare"], {"cluster", "svg"}),
        (["cluster", "--session", "synth0000"], {"svg"}),
    ])
    def test_command(self, dataset, tmp_path, argv, unused):
        loaded = _loaded_modules(_CLI_CODE, *argv, "--dataset", str(dataset),
                                 "--out", str(tmp_path / "out"))
        assert (tmp_path / "out" / argv[0]).is_dir()
        assert loaded & unused == set()

    def test_every_layer_is_in_sys_modules_after_import(self):
        # perfbench/spans.py wraps the layers it finds in sys.modules right
        # after `import musicking_lab`.
        _loaded_modules("import sys, musicking_lab\n"
                        "for layer in ('analytics', 'cluster', 'ingest', 'quality', 'stats', "
                        "'svg', 'timing'):\n"
                        "    assert f'musicking_lab.{layer}' in sys.modules, layer")

    def test_from_import_runs_the_body(self):
        # Code that times a submodule's functions imports it first.
        assert "timing" in _loaded_modules("from musicking_lab import timing")

    def test_first_use_from_many_threads(self):
        # Each thread must see the whole module, not one still running.
        _loaded_modules("import threading, musicking_lab\n"
                        "barrier, failed = threading.Barrier(8), []\n"
                        "def use():\n"
                        "    barrier.wait()\n"
                        "    try:\n"
                        "        musicking_lab.timing.per_bar_chorus\n"
                        "    except AttributeError as exc:\n"
                        "        failed.append(exc)\n"
                        "threads = [threading.Thread(target=use) for _ in range(8)]\n"
                        "for t in threads: t.start()\n"
                        "for t in threads: t.join()\n"
                        "assert failed == [], failed")

    def test_every_public_name_resolves(self):
        _loaded_modules("import musicking_lab\n"
                        "for name in musicking_lab.__all__:\n"
                        "    getattr(musicking_lab, name)\n"
                        "musicking_lab.ingest.load_bundled_beat_grid()")

    def test_star_import_binds_every_public_name(self):
        _loaded_modules("import musicking_lab\n"
                        "namespace = {}\n"
                        "exec('from musicking_lab import *', namespace)\n"
                        "assert set(musicking_lab.__all__) <= set(namespace)")

    def test_unknown_name_raises_attribute_error(self):
        _loaded_modules("import musicking_lab\n"
                        "try:\n"
                        "    musicking_lab.nope\n"
                        "except AttributeError:\n"
                        "    pass\n"
                        "else:\n"
                        "    raise AssertionError('musicking_lab.nope resolved')")
