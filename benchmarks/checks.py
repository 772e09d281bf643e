"""Output checks, run outside the timed region.

* ``pmf``/``pgf``: |value - ref| <= reported bound + 1e-15, the rule of
  ``verify.check_fixture``.  Grid rows are checked against the shipped
  oracle fixture, all others against ``reference.json``.
* ``passage``: the CLI reports no bound for these rows, so each value is
  held to the CLI's default relative tolerance (1e-12) plus 1e-15.
* ``sample``: n rows of non-negative integers whose chi-square test
  against the reference law rejects only at p < 1e-6; json output must
  parse and carry its ``meta``.
* every request: exit code 0.

``Checker.check`` returns None for a good output, else the reason.
"""

from __future__ import annotations

import csv
import json
import pathlib

import numpy as np
from scipy.stats import chi2

import workloads
from workloads import flags, key

SLACK = 1e-15
PASSAGE_REL_TOL = 1e-12
CHI2_REJECT_P = 1e-6
MIN_EXPECTED = 5.0


class Checker:
    def __init__(self, reference_path: pathlib.Path):
        self.reference = json.loads(reference_path.read_text("utf-8"))
        from fracpois.verify import load_fixture
        self.fixture = {}
        for a, nu, lam, t, k, v in load_fixture():
            self.fixture.setdefault((a, nu, lam, t), {})[k] = v

    def check(self, argv, exit_code, path):
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            if argv[0] == "pmf":
                return self._pmf(argv, path)
            if argv[0] == "pgf":
                return self._pgf(argv, path)
            if argv[0] == "passage":
                return self._passage(argv, path)
            if argv[0] == "sample":
                return self._sample(argv, path)
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                csv.Error) as exc:
            return f"unreadable output: {exc!r}"
        return None

    def _pmf(self, argv, path):
        f = flags(argv)
        grid = (float(f["alpha"]), float(f["nu"]), float(f["lambda"]),
                float(f["t"]))
        if grid in self.fixture:
            ref = self.fixture[grid]
        else:
            ref = dict(enumerate(float(v) for v in self.reference[key(argv)]))
        rows = _read_csv(path)
        if [int(r["k"]) for r in rows] != list(range(int(f["kmax"]) + 1)):
            return "wrong k column"
        for r in rows:
            miss = _miss(float(r["p"]), ref[int(r["k"])],
                         float(r["error_bound"]))
            if miss:
                return f"k={r['k']}: {miss}"
        return None

    def _pgf(self, argv, path):
        (row,) = _read_csv(path)
        return _miss(float(row["value"]), float(self.reference[key(argv)]),
                     float(row["error_bound"]))

    def _passage(self, argv, path):
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        ref = self.reference[key(argv)]
        if [repr(r["t"]) for r in rows] != ref["t"]:
            return "wrong t column"
        for i, r in enumerate(rows):
            for col in ("cdf", "density"):
                want = float(ref[col][i])
                miss = _miss(r[col], want, PASSAGE_REL_TOL * abs(want))
                if miss:
                    return f"t={r['t']} {col}: {miss}"
        return None

    def _sample(self, argv, path):
        f = flags(argv)
        n = int(f["n"])
        if f.get("format") == "json":
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            meta = doc["meta"]
            if meta.get("process") != f["process"] or meta.get("n") != n:
                return f"meta does not describe the request: {meta}"
            values = [r["count"] for r in doc["rows"]]
            if not all(type(v) is int for v in values):
                return "a count is not an integer"
            counts = np.array(values, dtype=np.int64)
        else:
            lines = pathlib.Path(path).read_text("utf-8").split("\n")
            if lines[0] != "count" or lines[-1] != "":
                return "bad csv framing"
            counts = np.array(lines[1:-1], dtype=np.int64)
        if counts.size != n:
            return f"{counts.size} rows, expected {n}"
        if counts.min() < 0:
            return "negative count"
        law = dict(workloads.SAMPLE_LAWS)[f["process"]]
        probs = [float(v) for v in self.reference[
            workloads.sample_law_key(f["process"], law)]]
        p = chi_square_p(counts, probs)
        if p < CHI2_REJECT_P:
            return f"chi-square rejects the law: p={p:.3g}"
        return None


def _miss(value, ref, bound):
    err = abs(value - ref)
    if err <= bound + SLACK:
        return None
    return f"|{value!r} - {ref!r}| = {err:.3g} > bound {bound:.3g} + {SLACK}"


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def chi_square_p(counts, probs):
    """p-value of counts against probs[0..kcap] plus the tail bin."""
    kcap = len(probs) - 1
    n = counts.size
    observed = np.bincount(np.minimum(counts, kcap + 1), minlength=kcap + 2)
    expected = np.append(probs, max(0.0, 1.0 - sum(probs))) * n
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    obs, exp = np.array(obs), np.array(exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(chi2.sf(stat, len(obs) - 1))
