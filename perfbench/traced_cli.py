"""Run one CLI command in this fresh interpreter and record where its time goes.

Usage: python3 traced_cli.py TRACE.json ARGS...

Times the import of ``bisyncgames.cli``, counts the modules it loads,
times ``cli.run(ARGS)`` with ``serialize.load_json`` and ``dump_json``
wrapped, writes those figures to TRACE.json and exits with the code
``cli.run`` returned.  The report itself goes to stdout as usual.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import bisyncgames.cli as cli
    import_s = time.perf_counter() - start
    modules = len(sys.modules)

    import json

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, prefixes=("serialize.",))
    start = time.perf_counter()
    code = cli.run(sys.argv[2:])
    handler_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_ms": 1000.0 * import_s, "modules_loaded": modules,
                   "handler_ms": 1000.0 * handler_s, "spans": tracer.spans}, fh)
    sys.exit(code)
