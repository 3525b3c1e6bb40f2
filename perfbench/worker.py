"""One set-up or one timed round of a benchmark workload, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the mode ("setup" or "run"), the workload, the seed, the CLI
output directory, whether to trace, and where to write the result JSON.
Set-up writes the workload's config.json into the output directory and runs
the workload's set-up commands with ``--seed``; a run times each of its
commands through ``salience_lab.cli.main`` with the seed of config.json.
salience_lab is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def blas_threads() -> int:
    """Threads of the OpenBLAS that numpy loaded; OPENBLAS_NUM_THREADS or nproc otherwise."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", os.cpu_count() or 1))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from salience_lab import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    out = Path(spec["out"])
    workload = WORKLOADS[spec["workload"]]
    if spec["mode"] == "setup":
        out.mkdir(parents=True, exist_ok=True)
        config = workload.make_config(cli.bundled_config("benchmark"), spec["seed"])
        (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
        commands = workload.setup
        base = ["--seed", str(spec["seed"])]
    else:
        commands = workload.commands
        base = []
    base += ["--config", str(out / "config.json"), "--out", str(out)]
    stages = []
    start = time.perf_counter()
    for command in commands:
        t0 = time.perf_counter()
        code = cli.main(base + list(command))
        stages.append({"command": list(command), "seconds": time.perf_counter() - t0,
                       "code": code})
        if code != 0:
            break
    result = {
        "stages": stages,
        "run_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "self_s": dict(tracer.self_s) if tracer else {},
        "counts": dict(tracer.counts) if tracer else {},
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
