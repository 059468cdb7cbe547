"""One benchmark process: import teig, then dispatch one CLI call into
``teig.cli.main``.

Usage: python3 child.py RESULT_FILE {setup|run|trace} [TEIG CLI ARGS...]

``setup`` stops at the dispatch point, ``run`` makes the call untraced and
``trace`` installs the tracer first. RESULT_FILE receives a JSON object
with the dispatch and return times on ``time.monotonic`` (one clock for
all processes on Linux, so the parent can subtract its spawn time), the
CLI exit code, the process's CPU time and peak RSS, the environment, and,
when traced, the span statistics. ``teig`` must be importable from
PYTHONPATH.
"""

import json
import platform
import resource
import sys
import time


def main():
    result_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import teig.cli

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t_dispatch = time.monotonic()
    exit_code = None if mode == "setup" else teig.cli.main(cli_args)
    t_return = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    import numpy

    try:
        from teig._accel import JIT_ENABLED
    except ImportError:  # without the numba layer nothing is compiled
        JIT_ENABLED = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "t_dispatch": t_dispatch,
        "t_return": t_return,
        "exit_code": exit_code,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "jit_enabled": JIT_ENABLED,
            "teig_file": teig.cli.__file__,
        },
        "trace": tracer.export() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
