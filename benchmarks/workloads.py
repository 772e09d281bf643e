"""Request lists of the benchmark workloads.

A request is the argv of one ``fracpois`` CLI call, without ``--out``.
Law parameters are a fixed grid; only the RNG seeds of ``sample`` and
``verify`` requests come from the workload seed, so the same seed always
gives the same requests.

* ``tables``: certified evaluation (``pmf``, ``pgf``, ``passage``), where
  ``special_fn`` and ``dist`` do nearly all the work.  pmf rows are the
  majority so that the median lands inside the row class; passage
  tables, long rows and the hard Mittag-Leffler scalar fill the tail
  above the 90th percentile.
* ``simulate``: ``sample`` at n=1e6 in csv for all four processes and in
  json for two, where the sampler and the CLI serialisation do the work.
* ``verify``: every Monte Carlo and analytic suite over a few seeds,
  drawing in memory next to ``dist`` rows and the verify statistics.

BENCHMARK.json lists ``tables`` and ``verify`` only.  ``simulate`` runs by
hand (``--workload simulate``): its latencies rest on six requests of one
to five seconds each, and on a shared 2-CPU host their run-to-run spread
(interquartile range over ten seeds, 0.23-0.33 of the median) exceeded
the largest bound a metric may have (0.25).
"""

from __future__ import annotations

import random

ORDERS = (0.3, 0.5, 0.7, 1.0)       # alpha and nu of the shipped fixture grid
RATES = (0.5, 1.0, 5.0)             # lambda of the shipped fixture grid
GRID_KMAX = 30
LONG_ORDERS = ((0.3, 1.0), (0.5, 1.0), (0.7, 1.0), (0.5, 0.5), (0.7, 0.7))
LONG_TIMES = (2.0, 5.0, 10.0)
PGF_LAWS = ((0.5, 1.0, 1.0), (0.5, 0.5, 1.0), (0.7, 1.0, 5.0),
            (0.7, 0.7, 5.0))        # (alpha, nu, lambda) at t = 1
PGF_U = (-1.0, -0.5, 0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)
PASSAGE_ALPHAS = (0.5, 0.7)
PASSAGE_K = (1, 3, 10)
PASSAGE_TMAX, PASSAGE_STEPS = 5.0, 25
# pgf at u=0 is mittag_leffler(0.3, -8): the slowest scalar of the series
HARD_SCALAR = ["pgf", "--lambda", "8.0", "--nu", "0.3", "--t", "1.0",
               "--u", "0.0"]

SAMPLE_N = 1_000_000
# (process, extra flags); the composed law equals the space law of order
# alpha * gamma = 0.35
SAMPLE_LAWS = (
    ("space", ["--alpha", "0.7"]),
    ("time", ["--nu", "0.7"]),
    ("space-time", ["--alpha", "0.7", "--nu", "0.7"]),
    ("composed", ["--alpha", "0.7", "--gamma", "0.5"]),
)
JSON_PROCESSES = ("space", "time")
VERIFY_SEEDS = 3

WORKLOADS = ("tables", "simulate", "verify")


def flags(argv):
    """The ``--name value`` pairs of a request as a dict."""
    return dict(zip((a[2:] for a in argv[1::2]), argv[2::2]))


def key(argv):
    """Reference-table key of a request: its argv without the format."""
    f = flags(argv)
    f.pop("format", None)
    return " ".join([argv[0]] + [f"--{n} {v}" for n, v in f.items()])


def _pmf(alpha, nu, lam, t, kmax):
    return ["pmf", "--alpha", str(alpha), "--nu", str(nu), "--lambda",
            str(lam), "--t", str(t), "--kmax", str(kmax)]


def grid_requests():
    """pmf rows on the grid of the shipped oracle fixture."""
    return [_pmf(a, nu, lam, 1.0, GRID_KMAX)
            for a in ORDERS for nu in ORDERS for lam in RATES]


def reference_requests():
    """tables requests checked against the benchmark's own oracle table."""
    reqs = [_pmf(a, nu, 1.0, t, GRID_KMAX)
            for a, nu in LONG_ORDERS for t in LONG_TIMES]
    reqs.append(_pmf(0.7, 1.0, 5.0, 10.0, 100))
    reqs += [["pgf", "--alpha", str(a), "--nu", str(nu), "--lambda",
              str(lam), "--t", "1.0", "--u", str(u)]
             for a, nu, lam in PGF_LAWS for u in PGF_U]
    reqs += [["passage", "--alpha", str(a), "--lambda", "1.0", "--k",
              str(k), "--tmax", str(PASSAGE_TMAX), "--steps",
              str(PASSAGE_STEPS), "--format", "json"]
             for a in PASSAGE_ALPHAS for k in PASSAGE_K]
    reqs.append(list(HARD_SCALAR))
    return reqs


def sample_law_key(process, extra):
    """Reference-table key of the count law of a ``sample`` request."""
    return " ".join(["sample", "--process", process, *extra,
                     "--lambda", "1.0", "--t", "1.0"])


def requests(workload: str, seed: int) -> list[list[str]]:
    """The fixed request list of one pass of a workload."""
    if workload == "tables":
        # one fixed interleaving, so that every request class spans the
        # pass and p50/p90 do not hinge on a few seconds of it
        reqs = grid_requests() + reference_requests()
        random.Random(0).shuffle(reqs)
        return reqs
    rng = random.Random(seed)
    if workload == "simulate":
        reqs = []
        for fmt in ("csv", "json"):
            for process, extra in SAMPLE_LAWS:
                if fmt == "json" and process not in JSON_PROCESSES:
                    continue
                reqs.append(sample_law_key(process, extra).split()
                            + ["--n", str(SAMPLE_N), "--seed",
                               str(rng.randrange(2 ** 31)), "--format", fmt])
        return reqs
    if workload == "verify":
        reqs = []
        for _ in range(VERIFY_SEEDS):
            s = str(rng.randrange(2 ** 31))
            # pmf-mc leaves out the composed process: gof_pmf tests it
            # against the PMF of order alpha, not alpha * gamma, so it
            # fails on every seed (the subordination suite covers it)
            for process, extra in SAMPLE_LAWS[:3]:
                reqs.append(["verify", "--suite", "pmf-mc", "--process",
                             process, *extra, "--lambda", "1.0", "--t",
                             "1.0", "--seed", s])
            for extra in (["--alpha", "0.7"], ["--alpha", "0.7", "--nu",
                                               "0.7"]):
                reqs.append(["verify", "--suite", "min-uniform", *extra,
                             "--lambda", "1.0", "--t", "1.0", "--seed", s])
            reqs.append(["verify", "--suite", "subordination", "--alpha",
                         "0.7", "--gamma", "0.5", "--lambda", "1.0", "--t",
                         "1.0", "--seed", s])
            reqs.append(["verify", "--suite", "ode", "--alpha", "0.7",
                         "--lambda", "1.0", "--t", "1.0"])
        reqs.append(["verify", "--suite", "oracle", "--lambda", "1.0",
                     "--t", "1.0"])
        return reqs
    raise ValueError(f"unknown workload {workload!r}")
