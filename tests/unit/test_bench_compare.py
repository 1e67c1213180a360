"""``tools/bench_compare.py``: each benchmark is gated against its own
history, not against whichever bench file happened to run last."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / \
    "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(timestamp, **means):
    return {"timestamp": timestamp,
            "results": {name: {"mean_s": mean} for name, mean
                        in means.items()}}


def write_history(tmp_path, runs):
    path = tmp_path / "BENCH_throughput.json"
    path.write_text(json.dumps({"runs": runs}))
    return path


#: ``grid`` last ran two runs ago; the run just before the latest
#: measured only an unrelated benchmark.
HISTORY = [
    run("t0", test_grid=1.0),
    run("t1", test_serve=2.0),
    run("t2", test_grid=2.0, test_serve=2.0),
]


class TestPerBenchmarkHistory:
    def test_regression_found_only_in_an_older_run_fails(
            self, bench_compare, tmp_path, capsys):
        path = write_history(tmp_path, HISTORY)
        assert bench_compare.main(["--json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "test_grid: 1000.000 ms -> 2000.000 ms" in out

    def test_most_recent_earlier_measurement_wins(self, bench_compare):
        runs = [run("t0", test_grid=1.0), run("t1", test_grid=1.9),
                run("t2", test_grid=2.0)]
        previous = bench_compare.previous_results(runs)
        assert previous["test_grid"]["mean_s"] == 1.9
        assert bench_compare.compare(previous, runs[-1], 0.20) == []

    def test_unchanged_history_passes_and_new_benchmarks_are_reported(
            self, bench_compare, tmp_path, capsys):
        runs = HISTORY[:2] + [run("t2", test_grid=1.1, test_new=0.5)]
        path = write_history(tmp_path, runs)
        assert bench_compare.main(["--json", str(path)]) == 0
        assert "(new benchmark)" in capsys.readouterr().out

    def test_pair_gate_still_applies_within_the_latest_run(
            self, bench_compare, tmp_path):
        runs = [run("t0", test_x_traced=1.0, test_x_untraced=0.5)]
        runs.append(runs[0])
        path = write_history(tmp_path, runs)
        assert bench_compare.main(["--json", str(path)]) == 1
