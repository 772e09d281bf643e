"""fracpois benchmark: one run of one workload.

    python3 benchmarks/run.py --workload tables --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Workloads are defined in workloads.py.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median time for a fresh interpreter to import
  ``fracpois.cli`` and build its parser, over SETUP_REPEATS interpreters;
* ``wall_s``: median time of one pass over the workload's fixed request
  list, each pass in a fresh interpreter (cold mpmath caches); passes are
  repeated while the next one fits in ``--seconds`` (at least one);
* ``req_p50_ms`` / ``req_p90_ms``: median and 90th percentile of the
  request latencies of all passes (the request count is ``attempted``);
* ``peak_rss_mb``: median peak resident memory of the pass interpreters.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see tracer.py), the ``-X importtime`` split of the
set-up time, the fan-out probe and ``trace.overhead_frac``.

Every output is checked after its pass (checks.py).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
(failed requests, ``failed_frac = failed / attempted``) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170          # every subprocess is stopped by then
SETUP_CODE = "import fracpois.cli as c; c.build_parser()"
IMPORTTIME_MODULES = ("dist", "verify", "cli")

sys.path[:0] = [str(HERE), str(SRC)]
import workloads  # noqa: E402
from checks import Checker  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FRACPOIS_THREADS", None)
    return env


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.requests = workloads.requests(workload, seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.checker = Checker(HERE / "reference.json")
        WORK.mkdir(exist_ok=True)

    def timeout(self):
        return max(1.0, self.deadline - time.monotonic())

    def setup_probe(self):
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                           check=True, timeout=self.timeout())
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def importtime_probe(self):
        split = {m: [] for m in IMPORTTIME_MODULES}
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                env=child_env(), check=True, capture_output=True, text=True,
                timeout=self.timeout())
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| *fracpois\.(\w+)$",
                             line)
                if m and m.group(2) in split:
                    split[m.group(2)].append(int(m.group(1)) * 1e-6)
        return {f"setup.{m}.import_s": statistics.median(v)
                for m, v in split.items()}

    def one_pass(self, trace=False, fanout=False):
        """One pass in a fresh interpreter; checks its outputs, then
        deletes them.  Returns the worker's result, or None if it died."""
        tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{self.workload}-",
                                            dir=WORK))
        job = {"requests": self.requests, "out_dir": str(tmp),
               "src": str(SRC), "seed": self.seed, "trace": trace,
               "fanout": fanout, "result_path": str(tmp / "result.json"),
               "trace_path": str(WORK / f"trace-{self.workload}-"
                                 f"seed{self.seed}.json")}
        (tmp / "job.json").write_text(json.dumps(job), "utf-8")
        self.attempted += len(self.requests)
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"),
                            str(tmp / "job.json")], env=child_env(),
                           check=True, timeout=self.timeout())
            result = json.loads((tmp / "result.json").read_text("utf-8"))
            for argv, req in zip(self.requests, result["requests"]):
                reason = self.checker.check(argv, req["exit"], req["out"])
                if reason is not None:
                    self.failed += 1
                    print(f"FAILED {' '.join(argv)}: {reason}",
                          file=sys.stderr)
            return result
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            self.failed += len(self.requests)
            return None
        finally:
            shutil.rmtree(tmp)

    def end_to_end(self, seconds):
        setup_s = self.setup_probe()
        passes = []
        measured = 0.0
        while not passes or measured + passes[-1]["wall_s"] <= seconds:
            result = self.one_pass()
            if result is None:
                break
            passes.append(result)
            measured += result["wall_s"]
        if not passes:
            return {}
        latencies = [r["latency_s"] * 1e3 for p in passes
                     for r in p["requests"]]
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "req_p50_ms": statistics.median(latencies),
            "req_p90_ms": statistics.quantiles(latencies, n=10,
                                               method="inclusive")[-1],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }

    def per_layer(self):
        metrics = self.importtime_probe()
        plain = self.one_pass(fanout=True)
        traced = self.one_pass(trace=True)
        if plain is None or traced is None:
            return {}
        metrics.update(traced["layers"])
        # absent once sample_batch loses its thread pool
        if plain["fanout_speedup"] is not None:
            metrics["sample.fanout_speedup"] = plain["fanout_speedup"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
        return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "fracpois" / "cli.py").is_file():
        sys.exit(f"no fracpois sources under {SRC}")

    run = Run(args.workload, args.seed)
    metrics = run.per_layer() if args.trace else run.end_to_end(args.seconds)
    if not metrics:
        sys.exit("no pass completed; nothing was measured")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
