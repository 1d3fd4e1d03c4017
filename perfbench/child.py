"""One run of ``bwinr.cli.main`` in a fresh process.

    python3 perfbench/child.py REPORT MODE RUN_ID -- CLI_ARGS...

MODE ``plain`` wraps only the command's compute calls (``cli.train``, or
the Gram builders of ``conditioning``) to mark the phase boundaries;
MODE ``trace`` wraps every traced function (see ``tracing.py``). The
report is written once, after ``main`` returns: exit code, phase
timestamps on the system-wide monotonic clock, peak RSS, the BLAS
library and thread count in effect, and in trace mode the spans.
"""

import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (sibling module; the path is set above)

# Calls that make up the command's compute phase, per subcommand.
COMPUTE_CALLS = {
    "fit": ("train",),
    "ct": ("train",),
    "superres": ("train",),
    "conditioning": ("build_dyadic_gram", "build_relu_gram"),
}


def _openblas():
    """(config string, threads in effect) of the loaded OpenBLAS, or Nones."""
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    return get_config().decode(), int(get_threads())
    return None, None


def _mark_phase(cli, names, marks):
    def wrap(fn):
        def marked(*args, **kwargs):
            start = time.monotonic()
            marks.setdefault("compute_start", start)
            try:
                return fn(*args, **kwargs)
            finally:
                marks["compute_end"] = time.monotonic()
                marks["compute_calls"] = marks.get("compute_calls", 0) + 1
                marks["compute_s"] = marks.get("compute_s", 0.0) + marks["compute_end"] - start

        return marked

    for name in names:
        setattr(cli, name, wrap(getattr(cli, name)))


def main(argv):
    report_path, mode, run_id, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace"):
        raise SystemExit("usage: child.py REPORT plain|trace RUN_ID -- CLI_ARGS...")
    import bwinr.cli as cli

    marks = {}
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    else:
        _mark_phase(cli, COMPUTE_CALLS[cli_args[0]], marks)

    code = cli.main(cli_args)
    marks["main_end"] = time.monotonic()

    import numpy
    import scipy

    blas_config, blas_threads = _openblas()
    report = {
        "run_id": run_id,
        "exit_code": code,
        "marks": marks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_config,
        },
        "blas_threads": blas_threads,
        "spans": tracer.spans if tracer else None,
    }
    Path(report_path).write_text(json.dumps(report), encoding="ascii")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
