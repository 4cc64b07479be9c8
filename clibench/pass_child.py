"""One benchmark pass in a fresh process.

Usage: python3 pass_child.py SPEC.json RESULT.json

Imports cmclab.cli, notes the time the import returned, then runs the
invocations listed in SPEC.json in order through cmclab.cli.main(argv) in the
current directory, and notes the time the last one returned.  With "trace"
set in the spec, the outside-in tracer is installed after the import and its
summary goes into RESULT.json.  Timestamps are time.monotonic(), one clock
for every process on the host, so the parent can time the import from its
own spawn.
"""

import sys
import time

import cmclab.cli

T_IMPORT = time.monotonic()

import json  # noqa: E402  (already loaded by cmclab.cli)
import traceback  # noqa: E402


def main(spec_path, result_path):
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    rcs, errors = [], []
    for argv in spec["invocations"]:
        try:
            rcs.append(cmclab.cli.main(argv))
        except Exception:  # a crash fails this invocation, not the pass
            rcs.append(1)
            errors.append(traceback.format_exc(limit=4))
    t_end = time.monotonic()
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracing.summarize(tracer, t_end - T_IMPORT)
    result = {"t_import": T_IMPORT, "t_end": t_end, "rcs": rcs,
              "errors": errors, "trace": summary}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
