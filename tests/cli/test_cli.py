"""Tests for the command-line interface."""

import gzip
import io
import json

import pytest

from repro.analysis.population import PopulationAggregate, aggregate_to_data
from repro.cli import _coerce, build_parser, main
from repro.simulation.population import PopulationCellResult
from repro.tracing.events import Operation, TraceRecord
from repro.tracing.io import write_trace


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["missfree", "Z"])

    def test_coerce(self):
        # Each value is parsed as the swept field's own type.
        assert _coerce("max_neighbors", "10") == 10
        assert isinstance(_coerce("max_neighbors", "10"), int)
        assert _coerce("kf_fraction", "0.5") == 0.5
        assert isinstance(_coerce("investigator_weight", "2"), float)
        assert _coerce("use_geometric_mean", "FALSE") is False
        assert _coerce("use_geometric_mean", "true") is True
        for name, text in (("use_geometric_mean", "0"),
                           ("max_neighbors", "1.5"),
                           ("kf_fraction", "abc")):
            with pytest.raises(ValueError, match=name):
                _coerce(name, text)


class TestCommands:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = str(tmp_path / "trace.txt")
        assert main(["generate", "E", "--days", "5", "-o", out]) == 0
        generated = capsys.readouterr().out
        assert "wrote" in generated
        assert main(["stats", out]) == 0
        stats = capsys.readouterr().out
        assert "operations:" in stats

    def test_missfree(self, capsys):
        assert main(["missfree", "E", "--days", "7"]) == 0
        out = capsys.readouterr().out
        assert "SEER" in out and "LRU" in out

    def test_missfree_with_spy_and_figure3(self, capsys):
        assert main(["missfree", "E", "--days", "7", "--weekly",
                     "--spy", "--figure3"]) == 0
        out = capsys.readouterr().out
        assert "SPY UTILITY" in out
        assert "Figure 3" in out

    def test_live(self, capsys):
        assert main(["live", "E", "--days", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Table 4" in out and "Table 5" in out

    def test_live_same_with_and_without_checkpoint(self, tmp_path, capsys):
        # One path: the live cell always runs on the runner, so a
        # checkpoint, and a resume from it, change no table and no
        # counter (timings aside).
        def run(*extra):
            assert main(["live", "E", "--days", "7", "--metrics",
                         *extra]) == 0
            captured = capsys.readouterr()
            counters = [line for line in captured.err.splitlines()
                        if "second" not in line]
            return captured.out, counters

        checkpoints = str(tmp_path / "ck")
        plain = run()
        assert run("--checkpoint-dir", checkpoints) == plain
        assert run("--checkpoint-dir", checkpoints, "--resume") == plain

    def test_figure2(self, capsys):
        assert main(["figure2", "--machines", "E", "--days", "7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "E", "--days", "7",
                     "--parameter", "kf_fraction",
                     "--values", "0.45", "0.55"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_sweep_unknown_parameter_rejected(self, capsys, monkeypatch):
        # Rejected before the sweep runs, with the valid names.
        monkeypatch.setattr("repro.cli.sweep_parameter",
                            _refuse("swept a bad parameter"))
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "E", "--days", "1",
                  "--parameter", "no_such_param",
                  "--values", "1", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no_such_param" in captured.err
        assert "max_neighbors" in captured.err
        assert "kf_fraction" in captured.err

    def test_sweep_false_runs_false(self, capsys, monkeypatch):
        # `--values False` once reached SeerParameters as the truthy
        # string 'False', so both points ran with the flag on.
        from repro.tuning import sweep_parameter
        points = []

        def recorded(*args, **kwargs):
            points.extend(sweep_parameter(*args, **kwargs))
            return points
        monkeypatch.setattr("repro.cli.sweep_parameter", recorded)
        assert main(["sweep", "E", "--days", "1",
                     "--parameter", "normalize_shared_counts",
                     "--values", "True", "False"]) == 0
        flags = [point.result.parameters.normalize_shared_counts
                 for point in points]
        assert flags[0] is True and flags[1] is False
        assert "normalize_shared_counts=False" in capsys.readouterr().out

    def test_sweep_unparseable_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.cli.sweep_parameter",
                            _refuse("swept a bad value"))
        assert main(["sweep", "E", "--days", "1",
                     "--parameter", "normalize_shared_counts",
                     "--values", "True", "no"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'no'" in captured.err
        assert "normalize_shared_counts" in captured.err

    def test_sweep_rejected_value_exits_2(self, capsys, monkeypatch):
        # SeerParameters rejects kn_fraction 0.1 (kf_fraction is 0.55):
        # the sweep once dropped that point without a word and exited 0.
        monkeypatch.setattr("repro.cli.sweep_parameter",
                            _refuse("swept a rejected value"))
        assert main(["sweep", "E", "--days", "1",
                     "--parameter", "kn_fraction",
                     "--values", "0.1", "0.7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kn_fraction=0.1" in captured.err
        assert "must exceed kf_fraction" in captured.err

    @pytest.mark.parametrize("parameter, values", [
        ("kf_fraction", ["nan", "0.5"]),
        ("directory_distance_weight", ["1.0", "inf"]),
    ])
    def test_sweep_non_finite_value_exits_2(self, capsys, monkeypatch,
                                            parameter, values):
        # NaN passed every comparison in SeerParameters, so these once
        # scored a NaN point (and named it best) and exited 0.
        monkeypatch.setattr("repro.cli.sweep_parameter",
                            _refuse("swept a non-finite value"))
        assert main(["sweep", "E", "--days", "1", "--parameter", parameter,
                     "--values", *values]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{parameter} must be finite" in captured.err

    @pytest.mark.parametrize("parameter, values, reason", [
        ("kn", ["4", "8"], "compares kn_fraction"),
        ("kf", ["1", "3"], "compares kf_fraction"),
        ("investigator_weight", ["0.5", "4"], "runs no investigators"),
        ("minimum_disconnection_seconds", ["60", "6000"],
         "not a disconnection schedule"),
    ])
    def test_sweep_inert_parameter_exits_2(self, capsys, monkeypatch,
                                           parameter, values, reason):
        # Each of these once printed the same score at every value.
        monkeypatch.setattr("repro.cli.sweep_parameter",
                            _refuse("swept an inert parameter"))
        assert main(["sweep", "E", "--days", "1", "--parameter", parameter,
                     "--values", *values]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sweeping {parameter} cannot move the objective" \
            in captured.err
        assert reason in captured.err

    def test_figure2_parallel_identical_to_serial(self, capsys):
        assert main(["figure2", "--machines", "E", "--days", "7",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["figure2", "--machines", "E", "--days", "7"]) == 0
        serial = capsys.readouterr().out
        assert parallel == serial

    def test_figure2_checkpoint_and_resume(self, tmp_path, capsys):
        checkpoints = str(tmp_path / "cells")
        args = ["figure2", "--machines", "E", "--days", "7",
                "--checkpoint-dir", checkpoints]
        assert main(args) == 0
        first = capsys.readouterr().out
        from tests.simulation.checkpoints import stored_ids
        assert len(stored_ids(checkpoints)) == 2   # daily + weekly cells
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "restored from checkpoint" in captured.err

    def test_figure2_metrics_reports_runner(self, capsys):
        assert main(["figure2", "--machines", "E", "--days", "7",
                     "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "runner.shards_total" in err
        assert "runner.pool_utilization_percent" in err

    def test_sweep_parallel(self, capsys):
        assert main(["sweep", "E", "--days", "7",
                     "--parameter", "kf_fraction",
                     "--values", "0.45", "0.55", "--jobs", "2"]) == 0
        assert "best:" in capsys.readouterr().out

    def test_report_with_exports(self, tmp_path, capsys):
        json_path = str(tmp_path / "out.json")
        csv_path = str(tmp_path / "out.csv")
        assert main(["report", "--machines", "E", "--days", "7",
                     "--json", json_path, "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "SEER reproduction report" in out
        import json as _json
        rows = _json.load(open(json_path))
        assert any(row.get("machine") == "E" for row in rows)
        assert "machine" in open(csv_path).readline()

    @pytest.mark.parametrize("extra, status", [
        ([], 0),
        (["--shards", "4"], 2),     # the removed option is rejected
    ])
    def test_service_serves_then_drains(self, tmp_path, extra, status):
        argv = ["service", "--unix-socket", str(tmp_path / "s.sock"),
                "--max-runtime", "0.2"] + extra
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        assert code == status


class TestFaultFlags:
    def test_live_with_fault_profile(self, capsys):
        assert main(["live", "E", "--days", "10", "--fault-profile", "flaky",
                     "--fault-seed", "2", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "Table 3" in captured.out
        assert "fault profile 'flaky', fault seed 2" in captured.err
        assert "faults.injected_total" in captured.err

    def test_none_profile_output_identical_to_no_flag(self, capsys):
        assert main(["live", "E", "--days", "10"]) == 0
        plain = capsys.readouterr().out
        assert main(["live", "E", "--days", "10",
                     "--fault-profile", "none"]) == 0
        assert capsys.readouterr().out == plain

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["live", "E", "--fault-profile", "catastrophic"])

    def test_report_accepts_fault_flags(self, capsys):
        assert main(["report", "--machines", "E", "--days", "5",
                     "--fault-profile", "lossy", "--fault-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "SEER reproduction report" in out


class TestPopulationCommand:
    def test_sample_prints_profiles_without_simulating(self, capsys):
        assert main(["population", "sample", "--machines", "8",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "population seed 7: 8 machines" in out
        assert "pop7-000000" in out
        assert "investigator users" in out

    def test_run_is_the_default_action(self, capsys):
        assert main(["population", "--machines", "3", "--seed", "7",
                     "--days", "2", "--resamples", "50"]) == 0
        out = capsys.readouterr().out
        assert "Population report: 3 machines (seed 7)" in out
        assert "95% bootstrap band" in out
        for algorithm in ("SEER", "LRU", "SPY", "CODA"):
            assert algorithm in out

    def test_save_then_report_renders_identically(self, tmp_path, capsys):
        saved = str(tmp_path / "population.json")
        assert main(["population", "run", "--machines", "3", "--seed", "7",
                     "--days", "2", "--resamples", "50",
                     "--save", saved]) == 0
        first = capsys.readouterr().out
        assert main(["population", "report", "--load", saved,
                     "--resamples", "50"]) == 0
        assert capsys.readouterr().out == first

    def test_report_without_load_fails(self, capsys):
        assert main(["population", "report"]) == 2
        assert "--load" in capsys.readouterr().err

    @pytest.mark.parametrize("resamples", ["0", "-4"])
    def test_run_rejects_resamples_below_one_before_sampling(
            self, capsys, monkeypatch, resamples):
        # This once ran the whole sweep, then printed a [0.00, 0.00]
        # band for every column and exited 0.
        def no_sample(*args, **kwargs):
            raise AssertionError("population sampled for a bad --resamples")
        monkeypatch.setattr("repro.workload.sample_population", no_sample)
        assert main(["population", "run", "--machines", "3", "--days", "1",
                     "--resamples", resamples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--resamples must be at least 1, got {resamples}" \
            in captured.err

    @pytest.mark.parametrize("resamples", ["0", "-4"])
    def test_report_rejects_resamples_below_one_before_loading(
            self, tmp_path, capsys, monkeypatch, resamples):
        def no_load(data):
            raise AssertionError("scorecards loaded for a bad --resamples")
        monkeypatch.setattr("repro.analysis.population.aggregate_from_data",
                            no_load)
        saved = tmp_path / "population.json"
        saved.write_text("{}", encoding="utf-8")
        assert main(["population", "report", "--load", str(saved),
                     "--resamples", resamples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--resamples must be at least 1, got {resamples}" \
            in captured.err

    def test_checkpoint_resume_reuses_every_cell(self, tmp_path, capsys):
        checkpoint_dir = str(tmp_path / "ckpt")
        arguments = ["population", "--machines", "3", "--seed", "7",
                     "--days", "2", "--resamples", "50",
                     "--checkpoint-dir", checkpoint_dir]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert main(arguments + ["--resume", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "runner.shards_from_checkpoint" in captured.err
        assert "population.machines" in captured.err

    def test_fault_flags_accepted(self, capsys):
        assert main(["population", "--machines", "2", "--seed", "7",
                     "--days", "2", "--resamples", "50",
                     "--fault-profile", "flaky", "--fault-seed", "3",
                     "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "Population report: 2 machines" in captured.out
        assert "fault profile 'flaky'" in captured.err
        assert "faults.injected_total" in captured.err


class TestArgumentDomains:
    """Every numeric argument is checked in one place, after parsing and
    before any handler makes a trace, samples a fleet or reads a file:
    a value outside its domain gets a message and exit status 2."""

    @pytest.fixture(autouse=True)
    def nothing_generated(self, monkeypatch):
        refuse = _refuse("a handler ran for an argument out of its domain")
        for target in ("repro.cli.generate_machine_trace",
                       "repro.workload.generate_machine_trace",
                       "repro.workload.sample_population",
                       "repro.service.daemon.run_service"):
            monkeypatch.setattr(target, refuse)

    @pytest.mark.parametrize("argv, message", [
        # Each of these printed a report of an impossible deployment
        # and exited 0, or died with a ValueError traceback (exit 1).
        (["missfree", "C", "--days", "-1"],
         "missfree: --days must be positive and finite, got -1"),
        (["live", "C", "--days", "-1"],
         "live: --days must be positive and finite, got -1"),
        (["population", "run", "--machines", "2", "--days", "-1"],
         "population: --days must be positive and finite, got -1"),
        (["population", "run", "--machines", "0", "--days", "1"],
         "population: --machines must be at least 1, got 0"),
        (["figure2", "--machines", "C", "--days", "1", "--jobs", "0"],
         "figure2: --jobs must be at least 1, got 0"),
        (["figure2", "--machines", "C", "--days", "0"],
         "figure2: --days must be positive and finite, got 0"),
        (["missfree", "C", "--days", "nan"],
         "missfree: --days must be positive and finite, got nan"),
        (["generate", "C", "--days", "inf", "-o", "unused.txt"],
         "generate: --days must be positive and finite, got inf"),
        (["report", "--machines", "C", "--days", "1", "--jobs", "-2"],
         "report: --jobs must be at least 1, got -2"),
        (["sweep", "C", "--days", "1", "--parameter", "max_neighbors",
          "--values", "10", "--jobs", "0"],
         "sweep: --jobs must be at least 1, got 0"),
        (["live", "C", "--days", "1", "--jobs", "0"],
         "live: --jobs must be at least 1, got 0"),
        (["population", "sample", "--machines", "-3"],
         "population: --machines must be at least 1, got -3"),
        # These died with a ValueError or OverflowError traceback (exit
        # 1), or started the daemon and drained it at once (exit 0).
        (["service", "--queue-bound", "0"],
         "service: --queue-bound must be at least 1, got 0"),
        (["service", "--port", "70000"],
         "service: --port must be between 0 and 65535, got 70000"),
        (["service", "--port", "-1"],
         "service: --port must be between 0 and 65535, got -1"),
        (["service", "--max-runtime", "-1"],
         "service: --max-runtime must be positive and finite, got -1"),
        (["service", "--max-runtime", "nan"],
         "service: --max-runtime must be positive and finite, got nan"),
        (["service", "--max-runtime", "0"],
         "service: --max-runtime must be positive and finite, got 0"),
    ])
    def test_out_of_domain_exits_2_before_any_work(self, capsys, argv,
                                                   message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message

    @pytest.mark.parametrize("argv", [
        # Each of these exited 0 after recomputing every cell: the
        # runner reads the store only when it has both flags.
        ["figure2", "--machines", "C", "--days", "1", "--resume"],
        ["report", "--machines", "C", "--days", "1", "--resume"],
        ["sweep", "C", "--days", "1", "--parameter", "max_neighbors",
         "--values", "10", "--resume"],
        ["live", "C", "--days", "1", "--resume"],
        ["population", "run", "--machines", "2", "--days", "1",
         "--resume"],
    ], ids=lambda argv: argv[0])
    def test_resume_without_checkpoint_dir_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == \
            f"{argv[0]}: --resume needs --checkpoint-dir"

    def test_smallest_legal_values_reach_the_handler(self, monkeypatch):
        reached = []
        # build_parser binds the handler when main calls it.
        monkeypatch.setattr("repro.cli.cmd_population",
                            lambda args: reached.append(args) or 0)
        assert main(["population", "run", "--machines", "1",
                     "--days", "0.001", "--jobs", "1",
                     "--resamples", "1"]) == 0
        assert [args.machines for args in reached] == [1]

    def test_service_bounds_reach_the_handler(self, monkeypatch):
        reached = []
        monkeypatch.setattr("repro.cli.cmd_service",
                            lambda args: reached.append(args) or 0)
        assert main(["service", "--queue-bound", "1", "--port", "65535",
                     "--max-runtime", "0.001"]) == 0
        assert main(["service", "--port", "0"]) == 0
        assert [(a.queue_bound, a.port, a.max_runtime) for a in reached] == \
            [(1, 65535, 0.001), (1024, 0, None)]


def _gzipped_trace() -> bytes:
    text = io.StringIO()
    write_trace((TraceRecord(seq=i, time=float(i), pid=1, op=Operation.STAT,
                             path=f"/home/u/f{i}") for i in range(200)),
                text)
    return gzip.compress(text.getvalue().encode("utf-8"), mtime=0)


#: A gzip header, then a final deflate block of the reserved type 3.
_CORRUPT_GZIP = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07" + bytes(16)


def _saved_aggregate(days: float = 2.0, **changes) -> str:
    """A saved one-cell aggregate, its cell's fields edited."""
    cell = PopulationCellResult(
        machine="pop7-000000", activity=1.0, n_disconnections=3,
        uses_investigators=False, hoard_budget=1000, window_seconds=86400.0,
        windows=2, referenced_files=10, mean_working_set=100.0,
        mean_seer=120.0, mean_lru=300.0, mean_spy=130.0, mean_coda=310.0,
        disconnections=2, failed_disconnections=0, automatic_detections=0,
        median_first_miss_hours=0.0)
    data = aggregate_to_data(PopulationAggregate(population_seed=7, days=days,
                                                 cells=[cell]))
    data["cells"][0].update(changes)
    return json.dumps(data)


class TestUnreadableInput:
    """A file that cannot be read, or is not what the command reads,
    gets a reason and exit status 2, never a traceback."""

    @pytest.mark.parametrize("name, content, reason", [
        (None, None, "No such file or directory"),
        ("x.txt", "x\n", "not a seer trace (bad header 'x\\n')"),
        ("t.txt.gz", _gzipped_trace()[:400], "damaged gzip stream: "
         "Compressed file ended before the end-of-stream marker"),
        ("t.txt.gz", _CORRUPT_GZIP, "damaged gzip stream: Error -3 "
         "while decompressing data: invalid block type"),
    ], ids=["missing", "not-a-trace", "truncated-gz", "corrupt-gz"])
    def test_stats(self, tmp_path, capsys, name, content, reason):
        path = tmp_path / (name or "absent.txt")
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"stats: cannot read {path}: ")
        assert reason in captured.err

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        ('{"bad": 1}', "missing field 'population_seed'"),
        ("[1, 2]", "expected an object, got list"),
        (_saved_aggregate(mean_seer="lots"),
         "PopulationCellResult.mean_seer has the wrong type (str)"),
        (_saved_aggregate(mean_seer=float("nan")),
         "PopulationCellResult.mean_seer is not finite (nan)"),
        (_saved_aggregate(mean_seer=float("inf")),
         "PopulationCellResult.mean_seer is not finite (inf)"),
        (_saved_aggregate(days=float("nan")),
         "field 'days' is not finite (nan)"),
    ], ids=["missing", "not-json", "missing-field", "not-an-object",
            "mistyped-field", "nan-mean", "inf-mean", "nan-days"])
    def test_population_report_load(self, tmp_path, capsys, content,
                                    reason):
        path = tmp_path / "aggregate.json"
        if content is not None:
            path.write_text(content)
        assert main(["population", "report", "--load", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"population: cannot read {path}: ")
        assert reason in captured.err
