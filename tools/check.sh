#!/usr/bin/env bash
# One-shot pre-PR gate: everything CI enforces, in one command.
#
#   tools/check.sh          # full gate (tier-1 tests + lint + style + bench)
#   tools/check.sh --fast   # skip the pytest suite (lint/style/bench only)
#
# Tools that are not installed (ruff, mypy) are reported and skipped, not
# silently ignored: the container ships without them, CI images install
# them.  Everything that *can* run must pass for the gate to pass.
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
[ "${1:-}" = "--fast" ] && fast=1

failures=0
step() {
    echo
    echo "== $1"
}
run() {
    "$@"
    status=$?
    if [ $status -ne 0 ]; then
        echo "-- FAILED ($status): $*"
        failures=$((failures + 1))
    fi
    return 0
}

if [ $fast -eq 0 ]; then
    step "pytest (tier-1 suite)"
    run python -m pytest -x -q
fi

step "deeprh lint (determinism & unit discipline, DRH001-DRH006)"
run python -m repro.cli lint src/repro

step "ruff (pycodestyle/pyflakes/isort)"
if command -v ruff >/dev/null 2>&1; then
    run ruff check src tests tools
else
    echo "ruff not installed; skipping (pip install ruff to enable)"
fi

step "mypy (strict on repro.rng / repro.units)"
if command -v mypy >/dev/null 2>&1; then
    run mypy src/repro/rng.py src/repro/units.py
else
    echo "mypy not installed; skipping (pip install mypy to enable)"
fi

if [ $fast -eq 0 ]; then
    step "chaos smoke (supervised workers: crash + hang recovery)"
    run python tools/faults_smoke.py --chaos

    step "governor smoke (degradation ladder: park + resume parity)"
    run python tools/faults_smoke.py --governor

    step "obs smoke (traced campaign parity + summarize + scrape round trip)"
    run python tools/obs_smoke.py

    step "serve smoke (concurrent clients: byte parity + graceful drain)"
    run python tools/serve_smoke.py

    step "obs unit suite (tracer, metrics, summaries)"
    run python -m pytest tests/unit/obs -q

    step "governor overhead benchmark (governed-vs-ungoverned, <5% gate)"
    run python -m pytest benchmarks/bench_governor_overhead.py -q

    step "scrape overhead benchmark (scraped-vs-unscraped, <5% gate)"
    run python -m pytest benchmarks/bench_scrape_overhead.py -q
fi

step "benchmark regression gate"
run python tools/bench_compare.py

echo
if [ $failures -ne 0 ]; then
    echo "check.sh: $failures step(s) FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
