"""Tests for the command-line interface."""

import pytest

from repro.cli import _coerce, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["missfree", "Z"])

    def test_coerce(self):
        assert _coerce("10") == 10 and isinstance(_coerce("10"), int)
        assert _coerce("0.5") == 0.5
        assert _coerce("abc") == "abc"


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
        # Rejected before any trace is generated, with the valid names.
        def no_trace(args):
            raise AssertionError("trace generated for a bad parameter")
        monkeypatch.setattr("repro.cli._trace_for", no_trace)
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
