"""Run one mgtdetect CLI command with spans recorded around every layer.

    python perfbench/traced_cli.py SPANS.json <mgtdetect arguments...>

The import of `mgtdetect.cli` is timed before any wrapping. The spans are
written to SPANS.json when the command ends, whatever its exit code.
"""

import sys
import time

t0 = time.perf_counter()
import mgtdetect.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer, install  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = mgtdetect.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], {"import_s": import_s})
    sys.exit(code)
