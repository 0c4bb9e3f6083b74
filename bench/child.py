"""Run one ``ddstab`` CLI call with the package traced.

    DDSTAB_BENCH_TRACE=<spans.json> python bench/child.py <ddstab arguments>

Used by the cli workload's traced phase in place of ``python -m ddstab.cli``.
The import of ``ddstab.cli`` is timed and kept as the span ``cli.import``;
spans and kernel counts are written to the file named by DDSTAB_BENCH_TRACE
when the call ends, and the call's exit code is passed through.
"""
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import ddstab.cli
    t1 = time.perf_counter()

    from tracer import Tracer

    tracer = Tracer()
    tracer.add("cli.import", t0, t1)
    tracer.install()
    code = 1
    try:
        code = ddstab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["DDSTAB_BENCH_TRACE"], import_ms=1e3 * (t1 - t0))
    sys.exit(code)
