"""Run ``belltest.cli`` with a span around every layer call it makes.

Usage: python3 bench/tracecli.py SPANS_JSON <belltest arguments...>

Every function ``belltest.cli`` imports from another package module is
replaced, in the cli module's namespace only, by a traced wrapper, and the
``Path`` it uses for command-line files is replaced by a subclass that
records ``cli.read`` and ``cli.write`` spans.  ``cli.main`` is the root
span.  The spans are written to SPANS_JSON when the command returns.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

from tracing import Tracer

# Work counts recorded at a span's boundary, by function name: records
# produced, characters formatted or parsed (the CSV is ASCII, so characters
# are bytes), uniforms drawn, and margins evaluated.
COUNTS = {
    "run_protocol": lambda result, args: len(result),
    "format_dataset": lambda result, args: len(result),
    "parse_dataset": lambda result, args: len(args[0]),
    "counter_uniforms": lambda result, args: len(result),
    "maximize_quantum_violation": lambda result, args: result.evaluations,
    "classical_margin_floor": lambda result, args: result.samples_evaluated,
}


def instrument_cli(cli, tracer: Tracer):
    """Trace ``cli``'s layer calls; returns a function that undoes it."""
    saved = dict(vars(cli))
    for name, obj in saved.items():
        if inspect.isfunction(obj) and obj.__module__ != cli.__name__ \
                and obj.__module__.startswith("belltest."):
            setattr(cli, name, tracer.wrap(obj, count=COUNTS.get(name)))

    class TracedPath(type(Path())):
        def read_text(self, *args, **kwargs):
            with tracer.span("cli.read") as record:
                text = super().read_text(*args, **kwargs)
                record[4] = len(text)
                return text

        def write_text(self, data, *args, **kwargs):
            with tracer.span("cli.write") as record:
                record[4] = len(data)
                return super().write_text(data, *args, **kwargs)

    cli.Path = TracedPath
    traced_main = tracer.wrap(cli.main)

    def restore():
        for name in list(vars(cli)):
            if name in saved:
                setattr(cli, name, saved[name])

    return traced_main, restore


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = Tracer()
    import belltest.cli as cli

    traced_main, _ = instrument_cli(cli, tracer)
    code = traced_main(sys.argv[2:])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
