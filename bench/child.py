"""One esvsim CLI invocation, as the benchmark starts it.

    python child.py RECORD MODE [CLI ARGS...]

MODE is ``setup`` (import esvsim.cli and exit), ``run`` (call
``esvsim.cli.main`` with the CLI arguments) or ``trace`` (the same, with
the per-layer spans of ``spans.py`` installed).  RECORD receives a JSON
object with ``time.monotonic()`` stamps: ``imported`` right after
``import esvsim.cli``, and ``enter``/``exit`` just before and after the
call to ``main``.  CLOCK_MONOTONIC is shared by all processes, so the
parent compares these stamps with the time it spawned this process.
"""

import sys
import time


def main() -> int:
    record_path, mode, *argv = sys.argv[1:]
    bench_dir = sys.path.pop(0)     # keep the benchmark's modules out of esvsim's imports
    import esvsim.cli
    record = {"imported": time.monotonic(), "esvsim": esvsim.cli.__file__}
    rc = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.append(bench_dir)
            import spans
            tracer = spans.install()
        record["enter"] = time.monotonic()
        rc = esvsim.cli.main(argv)
        record["exit"] = time.monotonic()
        if tracer is not None:
            record["trace"] = tracer.report()
    record["rc"] = rc
    import json
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
