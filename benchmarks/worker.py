"""Run one pass of a workload in a fresh interpreter.

    python3 benchmarks/worker.py JOB.json

The job (written by run.py) holds the request list, the directory the
requests write their ``--out`` files to, and the path of the result file.
Requests go through ``fracpois.cli.main`` in this process, one after the
other (a closed loop with one client and one thread).  With ``trace``
set the pass runs under the span tracer and the result carries the
per-layer metrics; the spans are written to ``trace_path`` once the pass
ends.  With ``fanout`` set, the fan-out probe runs after the pass.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback

FANOUT_N = 1_000_000
FANOUT_REPEATS = 3


def fanout_speedup(sample, params_cls, seed):
    """Median time of sample_batch at threads=1 over threads=2.

    Returns None once sample_batch has no ``threads`` parameter.
    """
    if "threads" not in inspect.signature(sample.sample_batch).parameters:
        return None
    params = params_cls(1.0, 1.0, 0.7)
    times = {1: [], 2: []}
    for _ in range(FANOUT_REPEATS):
        for threads in (1, 2):
            start = time.perf_counter()
            sample.sample_batch("time", params, 1.0, FANOUT_N,
                                sample.RngStream(seed), threads=threads)
            times[threads].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import fracpois
    from fracpois import cli, sample
    if not os.path.abspath(fracpois.__file__).startswith(job["src"]):
        sys.exit(f"fracpois imported from {fracpois.__file__}, "
                 f"not from {job['src']}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    requests = []
    pass_start = time.perf_counter()
    for i, argv in enumerate(job["requests"]):
        out = os.path.join(job["out_dir"], f"r{i:04d}.out")
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            code = cli.main(argv + ["--out", out])
        except Exception:   # the pass goes on; the request counts as failed
            traceback.print_exc()
            code = -1
        requests.append({"latency_s": time.perf_counter() - start,
                         "exit": code, "out": out})
    wall_s = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "requests": requests}
    if tracer is not None:
        tracer.uninstall()
        formats = {i: argv[argv.index("--format") + 1]
                   if "--format" in argv else "csv"
                   for i, argv in enumerate(job["requests"])}
        written = sum(os.path.getsize(r["out"]) for r in requests
                      if os.path.exists(r["out"]))
        result["layers"] = tracer.layer_metrics(formats, written)
        with open(job["trace_path"], "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "request", "info"],
                       "spans": tracer.spans}, fh)
    if job["fanout"]:
        from fracpois.dist import ProcessParams
        result["fanout_speedup"] = fanout_speedup(sample, ProcessParams,
                                                  job["seed"])
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
