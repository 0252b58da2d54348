"""Traced `python -m quantum_rod.cli ARGS`.

    python3 perfbench/cli_child.py SUBCOMMAND [OPTIONS]

Imports `quantum_rod.cli` inside a span, wraps its public steps
(`build_parser`, `resolve_config`, the `run_<subcommand>` entries of
its dispatch table, `emit`) in spans, then calls the program's own
`cli.main`, so output and exit code are those of `quantum_rod.cli`.
Prints its spans as one line on stderr after a marker.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SPANS_MARK, Tracer  # noqa: E402


def traced(tr: Tracer, name: str, fn, measure=None):
    """`fn` inside a span; `measure(result)` adds computed counts to it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name, 0) as span:
            result = fn(*args, **kwargs)
            if measure is not None:
                span.update(measure(result))
            return result
    return wrapper


def main(argv: list[str]) -> int:
    tr = Tracer()
    with tr.span("cli.import", 0):
        from quantum_rod import cli
    # main looks these up as module globals when it runs
    cli.build_parser = traced(tr, "cli.build_parser", cli.build_parser)
    cli.resolve_config = traced(tr, "cli.resolve_config", cli.resolve_config)
    cli.emit = traced(tr, "cli.emit", cli.emit,
                      lambda text: {"output_bytes": len(text.encode())})
    cli._DISPATCH = {sub: traced(tr, "cli.run", fn) for sub, fn in cli._DISPATCH.items()}
    try:
        with tr.span("cli.main", 0):
            code = cli.main(argv)
    finally:
        print(SPANS_MARK + json.dumps(tr.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
