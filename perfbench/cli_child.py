"""Run one coaxtail CLI command under the benchmark's clock.

    python3 perfbench/cli_child.py --clock FILE [--spans FILE] COMMAND [ARGS...]

Calls `coaxtail.analysis.cli_main` directly (``src`` must be on
PYTHONPATH), which avoids the runpy warning of ``python -m`` and needs no
installed console script. The CPU-speed samples (see speed.py) are
written to the --clock file on exit. With --spans the wrap points of
layers.py are installed first and the recorded spans are saved there.
"""

import sys

from speed import SpeedClock


def main(argv):
    paths = {}
    while argv[:1] in (["--clock"], ["--spans"]):
        paths[argv[0]], argv = argv[1], argv[2:]
    clock = SpeedClock()
    try:
        with clock:
            from coaxtail.analysis import cli_main

            if "--spans" not in paths:
                return cli_main(argv)
            from layers import install
            from spans import Tracer

            tracer = Tracer()
            tracer.set_phase("cli")
            install(tracer)
            try:
                return cli_main(argv)
            finally:
                tracer.uninstall()
                tracer.table().save(paths["--spans"])
    finally:
        with open(paths["--clock"], "w") as fh:
            fh.write(clock.report())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
