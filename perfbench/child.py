"""Traced CLI process: ``python child.py SPANS_PATH ARGS...``.

Stands in for ``python -m copartitions.cli ARGS...`` in the traced
cli-session run.  It times ``import copartitions.cli``, installs the span
wrappers, calls ``copartitions.cli.main(ARGS)`` and writes its spans and
counters to SPANS_PATH as JSON before exiting with main's exit code.
"""

import json
import sys
import time

from spans import Tracer, install  # this file's directory is sys.path[0]


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import copartitions.cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.add_span("process.import", t0, t1)
    install(tracer)
    code = 1
    try:
        code = copartitions.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
