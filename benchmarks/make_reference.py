"""Regenerate benchmarks/reference.json from the independent oracle.

    python3 benchmarks/make_reference.py

Every value comes from ``fracpois.verify.oracle_pmf``, which shares no
series code with ``fracpois.special_fn``:

* pmf rows of the ``tables`` requests outside the shipped fixture grid;
* pgf values, as p_0 at rate lam * (1 - u);
* passage cdf as 1 - sum_{m<k} p_m, and passage density as
  lam**alpha * sum_{j<k} p_j * D_{k-1-j}, with D_n the partial sums of
  the (1-B)**alpha coefficients;
* the count laws of the ``simulate`` requests up to k = 30 (the composed
  process as the space law of order alpha * gamma).

Slow (minutes; the hard scalar alone takes about a minute), so runs read
the table instead of recomputing it.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import mpmath as mp
import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
import workloads  # noqa: E402
from workloads import flags, key  # noqa: E402

from fracpois.dist import ProcessParams  # noqa: E402
from fracpois.verify import OracleConfig, oracle_pmf  # noqa: E402

OCFG = OracleConfig(precision_digits=40)
DIGITS = 25
SAMPLE_KCAP = 30


def law(f, lam=None):
    return ProcessParams(float(lam if lam is not None else f["lambda"]),
                         float(f.get("alpha", 1.0)), float(f.get("nu", 1.0)))


def pmf_values(params, t, kmax):
    return [oracle_pmf(params, t, k, OCFG) for k in range(kmax + 1)]


def passage_entry(f):
    params = law(f)
    k = int(f["k"])
    tmax, steps = float(f["tmax"]), int(f["steps"])
    with mp.workdps(OCFG.precision_digits + 10):
        c = [mp.mpf(1)]
        a = mp.mpf(params.alpha)
        for r in range(k - 1):
            c.append(c[-1] * (r - a) / (r + 1))
        partial = [mp.fsum(c[:n + 1]) for n in range(k)]
        rate = mp.mpf(params.lam) ** a
        rows = {"t": [], "cdf": [], "density": []}
        for t in np.linspace(tmax / steps, tmax, steps):
            p = pmf_values(params, float(t), k - 1)
            rows["t"].append(repr(float(t)))
            rows["cdf"].append(mp.nstr(1 - mp.fsum(p), DIGITS))
            dens = rate * mp.fsum(p[j] * partial[k - 1 - j]
                                  for j in range(k))
            rows["density"].append(mp.nstr(dens, DIGITS))
    return rows


def entry(argv):
    f = flags(argv)
    if argv[0] == "pmf":
        return [mp.nstr(v, DIGITS) for v in
                pmf_values(law(f), float(f["t"]), int(f["kmax"]))]
    if argv[0] == "pgf":
        rate = float(f["lambda"]) * (1.0 - float(f["u"]))
        return mp.nstr(oracle_pmf(law(f, rate), float(f["t"]), 0, OCFG),
                       DIGITS)
    if argv[0] == "passage":
        return passage_entry(f)
    raise ValueError(f"no reference for {argv[0]!r}")


def sample_entry(extra):
    f = flags(["sample", *extra])
    alpha = float(f.get("alpha", 1.0)) * float(f.get("gamma", 1.0))
    nu = float(f.get("nu", 1.0))
    params = ProcessParams(1.0, alpha, nu)
    return [mp.nstr(v, DIGITS) for v in pmf_values(params, 1.0, SAMPLE_KCAP)]


def main():
    table = {}
    for argv in workloads.reference_requests():
        start = time.time()
        table[key(argv)] = entry(argv)
        print(f"{time.time() - start:7.1f}s  {key(argv)}", flush=True)
    for process, extra in workloads.SAMPLE_LAWS:
        k = workloads.sample_law_key(process, extra)
        start = time.time()
        table[k] = sample_entry(extra)
        print(f"{time.time() - start:7.1f}s  {k}", flush=True)
    out = HERE / "reference.json"
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {out}")


if __name__ == "__main__":
    main()
