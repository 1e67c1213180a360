"""The shipped examples and CLI flows run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "Chamber settled" in result.stdout
        assert "bit flips" in result.stdout
        assert "HCfirst" in result.stdout

    def test_temperature_attack(self):
        result = run_example("temperature_attack.py")
        assert result.returncode == 0, result.stderr
        assert "hammer-count reduction" in result.stdout
        assert "FIRES" in result.stdout

    def test_active_time_amplification(self):
        result = run_example("active_time_amplification.py")
        assert result.returncode == 0, result.stderr
        assert "Attack Improvement 3" in result.stdout
        assert "Defense Improvement 5" in result.stdout

    def test_spatial_profiling(self):
        result = run_example("spatial_profiling.py")
        assert result.returncode == 0, result.stderr
        assert "matches device mapping (HalfSwapMapping): True" in result.stdout
        assert "faster" in result.stdout

    def test_scrape_telemetry(self):
        result = run_example("scrape_telemetry.py")
        assert result.returncode == 0, result.stderr
        assert "deeprh_oracle_cache_hit_total" in result.stdout
        assert "oracle cache hit ratio" in result.stdout
        assert "retries/unit" in result.stdout
        assert "deterministic exposition: True" in result.stdout

    @pytest.mark.slow
    def test_defense_shootout(self):
        result = run_example("defense_shootout.py")
        assert result.returncode == 0, result.stderr
        assert "BlockHammer" in result.stdout
        assert "variable" in result.stdout.lower()


class TestCLIStudyPaths:
    def test_observations_quick(self, capsys):
        from repro.cli import main

        code = main(["observations", "--preset", "quick"])
        out = capsys.readouterr().out
        assert "16/16 observations reproduced" in out or "Obsv" in out
        # quick-scale statistics may drop one marginal observation, but the
        # command itself must complete and report all sixteen.
        assert out.count("Obsv") == 16
        assert code in (0, 2)

    def test_run_fig5_quick(self, capsys):
        from repro.cli import main

        assert main(["run", "fig5", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "crossing" in out

    def test_run_saves_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "table3", "--preset", "quick",
                     "--save-json", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "temperature.json").exists()

    @pytest.mark.slow
    def test_reproduce_writes_all_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["reproduce", "--preset", "quick",
                     "--outdir", str(tmp_path)])
        assert code in (0, 2)
        for name in ("table3", "fig3", "fig7", "fig11", "fig14",
                     "observations"):
            assert (tmp_path / f"{name}.txt").exists(), name
        for name in ("temperature", "acttime", "spatial"):
            assert (tmp_path / f"{name}.json").exists(), name
        scorecard = (tmp_path / "observations.txt").read_text()
        assert scorecard.count("Obsv") == 16

    def test_row_buffer_example(self):
        result = run_example("row_buffer_policies.py")
        assert result.returncode == 0, result.stderr
        assert "capped-open-page" in result.stdout

    def test_end_to_end_attack_example(self):
        result = run_example("end_to_end_attack.py")
        assert result.returncode == 0, result.stderr
        assert "match: True" in result.stdout            # bank hash recovered
        assert "recovered: True" in result.stdout        # row mapping recovered
        assert "softest point" in result.stdout
        assert "bit flip(s) in the victim's row" in result.stdout


class TestCLIStartup:
    def test_importing_the_cli_does_not_import_scipy(self):
        """scipy is loaded only where a confidence interval is computed;
        the import would otherwise dominate every command's start-up."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] "
             "== 'scipy'))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("flag", [["--data-plane", "pickle"],
                                      ["--shm-budget-mb", "64"]])
    def test_removed_transport_flags_are_rejected(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["campaign", "acttime", *flag])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--breaker-threshold",
                                      "--breaker-window",
                                      "--breaker-cooldown"])
    def test_removed_breaker_flags_are_rejected(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["serve", "--socket", "unused.sock", flag, "3"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
