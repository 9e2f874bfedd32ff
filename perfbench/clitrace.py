"""Run one optomo subcommand with span recorders installed.

    python3 perfbench/clitrace.py SPANS.json <optomo argv...>

Stands in for ``python -m optomo.cli`` in the traced cli-pipeline run: the
subcommand's stdout, stderr and exit code are unchanged, and SPANS.json gets
the spans, the handler time (``optomo.cli.main`` alone) and the import time.
"""

import json
import sys
import time

t0 = time.perf_counter()
import optomo.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t = time.perf_counter()
    with tracer.task_scope(0):
        rc = optomo.cli.main(argv)
    handler_s = time.perf_counter() - t
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "import_s": import_s,
                "handler_s": handler_s,
                "truncation_warnings": tracer.truncation_warnings,
                "spans": tracer.records(),
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
