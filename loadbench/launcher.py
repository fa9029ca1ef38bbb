"""Run a ``repro`` CLI verb with the benchmark's span tracer installed.

    python3 loadbench/launcher.py SPANS.json serve --port 0 --data-dir DIR

Installs the wrappers, hands over to ``repro.cli.main``, and when the
verb returns (``repro serve`` returns after SIGTERM, once its state is
flushed) restores every original and writes the spans to SPANS.json.
Each SIGUSR1 marks the span record (``Tracer.mark``) and then creates
``SPANS.json.mark<N>``, so the benchmark can wait for the mark and later
keep only the spans between two marks.
"""

import json
import signal
import sys
from pathlib import Path


def main(argv) -> int:
    from tracer import Tracer, current_targets

    spans_path, verb = argv[0], argv[1:]
    pristine = current_targets()
    tracer = Tracer()

    def on_mark(_signum, _frame) -> None:
        tracer.mark()
        Path(f"{spans_path}.mark{len(tracer.marks)}").touch()

    signal.signal(signal.SIGUSR1, on_mark)
    tracer.install()
    try:
        from repro.cli import main as cli_main

        rc = cli_main(verb)
    finally:
        tracer.restore()
        wire = tracer.to_wire()
        wire["restored"] = all(a is b for a, b in zip(current_targets(), pristine))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(wire, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
