"""The framekit CLI with tracing installed; used by traced cli_small passes.

Usage: tracecli.py SPAN_FILE <framekit arguments...>
Runs the command exactly as `python -m framekit` would, then writes the
recorded spans to SPAN_FILE as JSON and exits with the command's code.
"""

import json
import sys

import framekit.cli

import tracing

if __name__ == "__main__":
    rec = tracing.Recorder()
    tracing.install(rec)
    code = framekit.cli.run_command(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(rec.spans, fh)
    sys.exit(code)
