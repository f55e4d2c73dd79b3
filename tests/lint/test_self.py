"""The analyzer applied to this repository itself.

Two kinds of promise are pinned here: ``src/`` is clean (no finding,
and inline suppressions are the only exemption), and the incidents the
rules exist for cannot be silently reintroduced -- for each rule, the
exact pre-fix pattern from this repo's history is seeded back into the
real source and the rule must catch it (the RL003 salted-``hash``
regression set the template; RL008, RL009, RL011 and RL012 pin the
service-layer concurrency fixes the same way).
"""

import json
import os
import subprocess
import sys

from repro.lint import run_lint

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


def real_source(*relpath):
    with open(os.path.join(SRC, "repro", *relpath), "r",
              encoding="utf-8") as stream:
        return stream.read()


def lint_seeded(tmp_path, files, select):
    """Write {basename: source} under tmp_path and lint that tree."""
    for name, source in files.items():
        (tmp_path / name).write_text(source)
    return run_lint([str(tmp_path)], select=select)


class TestSrcIsClean:
    def test_run_lint_src_has_no_findings(self):
        result = run_lint([SRC])
        assert result.parse_errors == []
        messages = [f"{f.path}:{f.line}: {f.rule} {f.message}"
                    for f in result.findings]
        assert messages == []
        assert result.files_checked > 50

    def test_cli_exits_zero_on_src(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "--format", "json"],
            cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True
        assert data["findings"] == []


class TestPR3Regression:
    """Seeding the PR 3 bug back into runner.py must fail lint."""

    PATTERN = (
        "\n\n"
        "def _shard_seed_pr3(seed, path):\n"
        "    return hash(f\"{seed}:{path}\") & 0x7FFFFFFF\n"
    )

    def test_salted_hash_in_runner_is_caught(self, tmp_path):
        runner_src = os.path.join(SRC, "repro", "simulation", "runner.py")
        with open(runner_src, "r", encoding="utf-8") as stream:
            source = stream.read()
        assert "hash(f" not in source  # the incident really is fixed

        seeded = tmp_path / "repro" / "simulation"
        seeded.mkdir(parents=True)
        (seeded / "runner.py").write_text(source + self.PATTERN)

        result = run_lint([str(tmp_path)], select=["RL003"])
        assert [f.rule for f in result.findings] == ["RL003"]
        finding = result.findings[0]
        assert finding.path == "repro/simulation/runner.py"
        assert "hash(f" in finding.snippet

    def test_current_runner_is_clean(self):
        runner_src = os.path.join(SRC, "repro", "simulation", "runner.py")
        result = run_lint([runner_src], select=["RL003"])
        assert result.findings == []


class TestPR10Regressions:
    """Each concurrency rule, pinned against the real pre-fix pattern.

    The sources linted are the shipped ones with the PR 10 fix edited
    back out (or, for RL011 which had no in-tree finding, with the
    narrowly-avoided pattern seeded in); the rule must fire on the
    exact incident it was written for.
    """

    def test_rl008_store_read_on_event_loop(self, tmp_path):
        # Pre-fix _dispatch resolved actors with the synchronous
        # actor_for, pulling the blocking checkpoint-store read onto
        # the event loop.
        source = real_source("service", "daemon.py")
        fixed = "actor = await self._actor_for(tenant)"
        assert fixed in source
        result = lint_seeded(tmp_path, {
            "daemon.py": source.replace(
                fixed, "actor = self.actor_for(tenant)"),
        }, select=["RL008"])
        assert "RL008" in {f.rule for f in result.findings}
        assert any("store" in f.message.lower()
                   for f in result.findings)

    def test_rl009_lock_free_counter_read(self, tmp_path):
        # Pre-fix Metrics.counter read the dict without the lock the
        # writers hold; daemon.py supplies the event-loop context that
        # makes Metrics multi-context.
        source = real_source("observability", "metrics.py")
        fixed = ("    def counter(self, name: str) -> int:\n"
                 "        with self._lock:\n"
                 "            return self.counters.get(name, 0)\n")
        assert fixed in source
        result = lint_seeded(tmp_path, {
            "metrics.py": source.replace(
                fixed,
                "    def counter(self, name: str) -> int:\n"
                "        return self.counters.get(name, 0)\n"),
            "daemon.py": real_source("service", "daemon.py"),
        }, select=["RL009"])
        findings = [f for f in result.findings
                    if f.path == "metrics.py"]
        assert {f.rule for f in findings} == {"RL009"}
        assert any("counters" in f.message for f in findings)

    def test_rl011_unsupervised_connection_task(self, tmp_path):
        # Narrowly avoided: _on_connection keeps every connection task
        # in self._connections.  A fire-and-forget spawn would be
        # collectable mid-flight and its exceptions silently dropped.
        source = real_source("service", "daemon.py")
        seeded = source + (
            "\n\nasync def _probe_pr10(daemon, reader, writer):\n"
            "    asyncio.create_task(\n"
            "        daemon._serve_connection(reader, writer))\n")
        result = lint_seeded(tmp_path, {"daemon.py": seeded},
                             select=["RL011"])
        assert [f.rule for f in result.findings] == ["RL011"]

    def test_rl012_checkpoint_store_leak(self, tmp_path):
        # Pre-fix, a per-call checkpoint helper opened a store and
        # never closed it.  The same discarded handle, seeded into the
        # runner's open site, must still be caught.
        source = real_source("simulation", "runner.py")
        fixed = ("        state = SqliteStore(checkpoint_dir, "
                 "metrics=metrics).open()\n")
        assert fixed in source
        result = lint_seeded(tmp_path, {
            "runner.py": source.replace(
                fixed,
                "        SqliteStore(checkpoint_dir, metrics=metrics).open()"
                ".put(shards[0], {}, 0.0)\n"),
        }, select=["RL012"])
        assert [f.rule for f in result.findings] == ["RL012"]
        assert "SqliteStore" in result.findings[0].snippet


class TestJobsDeterminism:
    def test_parallel_run_matches_serial(self):
        serial = run_lint([SRC], jobs=1)
        parallel = run_lint([SRC], jobs=2)
        assert serial.findings == parallel.findings
        assert serial.files_checked == parallel.files_checked
        assert serial.parse_errors == parallel.parse_errors

    def test_parallel_run_keeps_suppressions(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def seed(path):\n"
            "    return hash(path)  # repro-lint: disable=RL003\n")
        (tmp_path / "b.py").write_text(
            "def seed(path):\n"
            "    return hash(path)\n")
        result = run_lint([str(tmp_path)], jobs=2, select=["RL003"])
        assert [f.path for f in result.findings] == ["b.py"]
        assert [f.path for f in result.suppressed] == ["a.py"]
