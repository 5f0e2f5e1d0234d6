"""Run one wittcurves command in process, with every layer traced.

    python bench/trace_cli.py OUT_JSON OP_ID COMMAND [ARGS...]

Behaves like ``python -m wittcurves.cli COMMAND [ARGS...]`` (same output,
same exit code) and writes the tracer's aggregates and spans to OUT_JSON.
The whole ``main.main(args, standalone_mode=False)`` call is the span
``cli.<command>``, so its self time is what the cli layer adds on top of
the layers below it.
"""

import json
import sys

import tracing


def main() -> int:
    out, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import wittcurves.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = op_id - 1
    code = 0
    try:
        tracer.run_op(
            "cli." + args[0].replace("-", "_"),
            lambda: wittcurves.cli.main.main(args, standalone_mode=False),
            layer="cli",
        )
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
