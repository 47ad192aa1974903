"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/launch.py SPANS_FILE serve --port 0 --cache FILE

Installs the service and server wrappers of :mod:`spans`, runs the
program's own CLI entry point with the remaining arguments, and writes
the recorded spans to ``SPANS_FILE`` when the server stops (Ctrl-C).
"""

from __future__ import annotations

import sys

from common import use_checkout


def main(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    use_checkout()
    from spans import SERVER_TARGETS, SERVICE_TARGETS, Recorder
    recorder = Recorder()
    recorder.install(SERVICE_TARGETS + SERVER_TARGETS)
    from repro.cli import main as repro_main
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
