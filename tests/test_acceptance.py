"""End-to-end acceptance checks.

Each test exercises one acceptance criterion and records a single
PASS/FAIL line; the conftest terminal-summary hook prints the collected
verdicts after the run, past pytest's output capture.
"""

import math
import time

import numpy as np

from fracpois import dist, frac_ops, verify
from fracpois.dist import ProcessParams
from fracpois.sample import RngStream, sample_batch
from conftest import ACCEPTANCE_LINES

GRID_ORDERS = (0.3, 0.5, 0.7, 1.0)
GRID_RATES = (0.5, 1.0, 5.0)


def _report(num: int, title: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    line = f"[acceptance {num:2d}] {verdict} {title}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, f"criterion {num} ({title}): {detail}"


def test_criterion_01_poisson_reduction():
    start = time.time()
    worst = 0.0
    for lam in GRID_RATES:
        for t in (0.5, 1.0, 2.0):
            rows = dist.pmf_row(ProcessParams(lam), t, 30)
            mu = lam * t
            ref = np.exp(-mu) * mu ** np.arange(31) / [math.factorial(k)
                                                       for k in range(31)]
            worst = max(worst, float(np.max(np.abs(
                np.array([r.p for r in rows]) - ref))))
    elapsed = time.time() - start
    _report(1, "Poisson reduction", worst < 1e-12 and elapsed < 1.0,
            f"max abs error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    start = time.time()
    ok, failures = verify.check_fixture()
    elapsed = time.time() - start
    _report(2, "oracle equivalence", ok and elapsed < 60.0,
            f"{len(failures)} grid rows out of bound, {elapsed:.1f}s")


def test_criterion_03_pgf_pmf_consistency():
    start = time.time()
    worst = 0.0
    u = 0.5
    for alpha in GRID_ORDERS:
        for nu in GRID_ORDERS:
            for lam in GRID_RATES:
                params = ProcessParams(lam, alpha, nu)
                target = dist.pgf(params, 1.0, u).value
                got = dist.pgf_partial_sum(params, 1.0, u, 200)
                worst = max(worst, abs(got.value - target))
    elapsed = time.time() - start
    _report(3, "PGF/PMF consistency", worst < 1e-8 and elapsed < 60.0,
            f"max |partial sum - pgf| {worst:.2e} at u=0.5, {elapsed:.1f}s")


def test_criterion_04_ode_residual_and_coefficient_identity():
    worst_res = max(verify.check_ode_residual(ProcessParams(1.0, a), 1.0, 10)
                    for a in (0.5, 0.8, 1.0))
    worst_id = max(abs(frac_ops.beta_form_coeff(a, r)
                       + frac_ops.frac_binom_coeff(a, r))
                   for a in (0.5, 0.8) for r in range(2, 41))
    ok = worst_res < 1e-6 and worst_id < 1e-12
    _report(4, "governing ODE residual", ok,
            f"max residual {worst_res:.2e}, coefficient identity gap "
            f"{worst_id:.2e}")


def test_criterion_05_subordination_two_sample():
    start = time.time()

    def run(n, attempt):
        a = sample_batch("composed", ProcessParams(1.0, 0.8), 1.0, n,
                         RngStream(205 + attempt, 1), gamma=0.5)
        b = sample_batch("space", ProcessParams(1.0, 0.4), 1.0, n,
                         RngStream(205 + attempt, 2))
        rep = verify.gof_two_sample(a.counts, b.counts)
        return rep.passed, rep

    passed, rep = verify.two_stage(run, 100_000)
    elapsed = time.time() - start
    _report(5, "subordination two-sample", passed and elapsed < 60.0,
            f"p={rep.p_value:.4f} (dof {rep.dof}), {elapsed:.1f}s")


def test_criterion_06_subordinated_representation_gof():
    def run(n, attempt):
        batch = sample_batch("space", ProcessParams(1.0, 0.5), 1.0, n,
                             RngStream(206 + attempt))
        rep = verify.gof_pmf(batch)
        p0 = float((batch.counts == 0).mean())
        return rep.passed, (rep, p0, n)

    passed, (rep, p0, n) = verify.two_stage(run, 1_000_000)
    target = math.exp(-1.0)
    sigma = math.sqrt(target * (1.0 - target) / n)
    spot = abs(p0 - target) < 3.0 * sigma
    _report(6, "subordinated PMF GoF", passed and spot,
            f"p={rep.p_value:.4f}, p0 off by {abs(p0 - target) / sigma:.2f} "
            "sigma")


def test_criterion_07_min_uniform_representations():
    worst = 0.0
    passed = True
    for alpha in GRID_ORDERS:
        for nu in GRID_ORDERS:
            for u in (0.2, 0.5, 0.8):
                def run(n, attempt, alpha=alpha, nu=nu, u=u):
                    rng = RngStream(207 + attempt,
                                    int(1000 * alpha + 100 * nu + 10 * u))
                    res = verify.check_min_uniform_space(
                        ProcessParams(1.0, alpha, nu), 1.0, u, n, rng)
                    return abs(res.z_score) < 4.0, res

                ok, res = verify.two_stage(run, 1_000_000)
                passed = passed and ok
                worst = max(worst, abs(res.z_score))
    _report(7, "min-uniform representations", passed,
            f"max |z| {worst:.2f} over the (alpha, nu, u) grid")


def test_criterion_08_erlang_first_passage():
    lam, t = 1.3, 0.9
    worst = 0.0
    for k in range(1, 11):
        got = dist.first_passage_density(ProcessParams(lam), t, k).value
        ref = (lam * math.exp(-lam * t) * (lam * t) ** (k - 1)
               / math.factorial(k - 1))
        worst = max(worst, abs(got - ref))
    exact0 = dist.first_passage_cdf(ProcessParams(1.0, 0.5), 1.0, 0).value
    _report(8, "Erlang first passage", worst < 1e-12 and exact0 == 1.0,
            f"max density error {worst:.2e}, CDF at level 0 = {exact0}")


def test_criterion_09_heavy_tail_slope():
    params = ProcessParams(1.0, 0.5)
    ks = np.array([100, 1000, 10_000], dtype=float)
    sv = np.array([dist.first_passage_cdf(params, 1.0, int(k) + 1).value
                   for k in ks])
    slope = np.polyfit(np.log(ks), np.log(sv), 1)[0]
    _report(9, "heavy-tail survival slope", abs(slope + 0.5) < 0.1,
            f"log-log slope {slope:.3f} over k in [1e2, 1e4]")


def test_criterion_10_time_fractional_cross_check():
    worst = 0.0
    ok_series = True
    for nu in (0.3, 0.5, 0.7):
        params = ProcessParams(1.0, 1.0, nu)
        for k in range(21):
            a = dist.pmf(params, 1.0, k)
            b = dist.pmf_time_fractional_direct(params, 1.0, k)
            gap = abs(a.p - b.p)
            bound = a.abs_error_bound + b.abs_error_bound + 1e-15
            worst = max(worst, gap)
            ok_series = ok_series and gap <= bound

    params = ProcessParams(1.0, 1.0, 0.5)

    def gof(draw):
        def run(n, attempt):
            rep = verify.gof_pmf(draw(n, attempt))
            return rep.passed, rep
        return verify.two_stage(run, 1_000_000)

    ok_renewal, renewal = gof(lambda n, attempt: verify.renewal_batch(
        params, 1.0, n, RngStream(210 + attempt)))
    ok_mixture, mixture = gof(lambda n, attempt: sample_batch(
        "time", params, 1.0, n, RngStream(210 + attempt, 1)))
    _report(10, "time-fractional cross-check",
            ok_series and ok_renewal and ok_mixture,
            f"max series gap {worst:.2e}, renewal GoF "
            f"p={renewal.p_value:.4f}, mixture GoF p={mixture.p_value:.4f}")
