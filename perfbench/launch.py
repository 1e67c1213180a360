"""Run the ``deeprh`` CLI with the benchmark's layer spans installed.

Usage: ``python3 perfbench/launch.py SPANS_DIR <deeprh arguments...>``

Times ``import repro.cli`` as the ``startup.import`` span, wraps the
public functions listed in ``drhbench.layers.SEAMS`` (before any pool
fork, so workers inherit them), then runs the CLI.  Spans are kept in
memory and written under ``SPANS_DIR`` as ``spans-<pid>.jsonl`` when a
worker's top-level span closes and when the process exits.  The program
itself is not modified.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from drhbench import layers  # noqa: E402
from drhbench.spans import Recorder  # noqa: E402


def _import_cli():
    import repro.cli

    return repro.cli


def main() -> int:
    recorder = Recorder(sys.argv[1])
    recorder.install_process_hooks()
    cli = recorder.record("startup.import", _import_cli)
    layers.install(recorder)
    sys.argv = ["deeprh", *sys.argv[2:]]
    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
