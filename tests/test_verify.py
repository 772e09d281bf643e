import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import chi2

from fracpois import dist, sample, verify
from fracpois.dist import ProcessParams
from fracpois.sample import RngStream, SampleBatch, sample_batch
from fracpois.special_fn import NonConvergence, mittag_leffler
from fracpois.verify import (DegenerateBins, OracleConfig, check_fixture,
                             check_min_uniform_space, check_ode_residual,
                             gof_pmf, gof_two_sample, load_fixture,
                             oracle_pmf, two_stage, write_fixture)


def test_gof_pmf_null_is_accepted():
    batch = sample_batch("space", ProcessParams(1.0, 0.5), 1.0, 50_000,
                         RngStream(101))
    rep = gof_pmf(batch)
    assert rep.passed
    assert rep.dof >= 2


def test_gof_pmf_detects_misfit():
    """Counts drawn from the wrong order must be flagged."""
    batch = sample_batch("space", ProcessParams(1.0, 0.8), 1.0, 50_000,
                         RngStream(103))
    wrong = SampleBatch(counts=batch.counts,
                        params=ProcessParams(1.0, 0.5), t=1.0,
                        seed=batch.seed, n=batch.n)
    rep = gof_pmf(wrong)
    assert not rep.passed
    assert rep.p_value < 1e-6


def test_gof_pmf_needs_large_n():
    batch = sample_batch("space", ProcessParams(1.0, 0.5), 1.0, 100,
                         RngStream(0))
    with pytest.raises(ValueError):
        gof_pmf(batch)


def test_gof_two_sample_null():
    a = sample_batch("space", ProcessParams(1.0, 0.6), 1.0, 50_000,
                     RngStream(107))
    b = sample_batch("space", ProcessParams(1.0, 0.6), 1.0, 50_000,
                     RngStream(109))
    assert gof_two_sample(a.counts, b.counts).passed


def test_gof_two_sample_detects_difference():
    a = sample_batch("space", ProcessParams(1.0, 0.6), 1.0, 50_000,
                     RngStream(107))
    b = sample_batch("space", ProcessParams(1.0, 0.9), 1.0, 50_000,
                     RngStream(109))
    rep = gof_two_sample(a.counts, b.counts)
    assert not rep.passed


def test_merge_bins_degenerate():
    with pytest.raises(DegenerateBins):
        verify._merge_bins([1.0, 1.0], [0.5, 0.5], ["0", "1"])


def test_merge_bins_tail_label():
    """A leftover tail merged into the last bin extends its label to the
    tail's last bin, also when only its observed count is non-zero."""
    obs, exp, labs = verify._merge_bins([10, 10, 10, 1, 1, 1],
                                        [100, 100, 100, 2, 1, 1],
                                        ["0", "1", "2", "3", "4", ">4"])
    assert labs == ["0", "1", "2->4"]
    assert list(obs) == [10, 10, 13] and list(exp) == [100, 100, 104]
    assert verify._merge_bins([10, 10, 1], [100, 100, 0],
                              ["0", "1", ">1"])[2] == ["0", "1->1"]
    assert verify._merge_bins([10, 10, 0], [100, 100, 0],
                              ["0", "1", ">1"])[2] == ["0", "1"]


@pytest.mark.parametrize("params, seed, exact", [
    (ProcessParams(1.0, 0.5), 113, math.exp(-math.sqrt(0.5))),
    # E_{1/2}(-z) = exp(z**2) * erfc(z)
    (ProcessParams(1.0, 0.7, 0.5), 127,
     math.exp(0.5 ** 1.4) * math.erfc(0.5 ** 0.7)),
], ids=["space", "space-time"])
def test_min_uniform_space_z_small(params, seed, exact):
    res = check_min_uniform_space(params, 1.0, 0.5, 200_000, RngStream(seed))
    assert abs(res.z_score) < 4.0
    assert res.analytic == pytest.approx(exact, rel=1e-12)


def test_min_uniform_space_counts_are_plain_poisson(monkeypatch):
    """At nu = 1 the driving counts are the time process's batch of rate
    lam**alpha, drawn by numpy's scalar-mean Poisson sampler."""
    poisson_counts, seen = sample._poisson_counts, []

    def spy(mu, n, gen):
        counts = poisson_counts(mu, n, gen)
        seen.append((mu, counts))
        return counts

    monkeypatch.setattr(sample, "_poisson_counts", spy)
    lam, alpha, t, n = 2.0, 0.7, 1.5, 10_000
    check_min_uniform_space(ProcessParams(lam, alpha), t, 0.3, n,
                            RngStream(131))
    (mu, counts), = seen
    assert np.ndim(mu) == 0
    assert np.array_equal(
        counts, sample_batch("time", ProcessParams(lam ** alpha, 1, 1), t, n,
                             RngStream(131)).counts)


def test_min_uniform_space_at_time_zero():
    """At t = 0, N = 0 without a draw and the event always holds."""
    res = check_min_uniform_space(ProcessParams(1.0, 0.5, 0.5), 0.0, 0.5,
                                  1000, RngStream(0))
    assert res.analytic == 1.0 and res.empirical == 1.0


def test_min_uniform_space_uniforms_from_parent_stream():
    """The uniforms V are the parent stream's first draws, which the
    counts' child streams never reach."""
    lam, alpha, t, u, n = 2.0, 0.7, 1.5, 0.3, 10_000
    rng = RngStream(137)
    res = check_min_uniform_space(ProcessParams(lam, alpha), t, u, n, rng)
    counts = sample_batch("time", ProcessParams(lam ** alpha, 1, 1), t, n,
                          rng).counts
    v = rng.generator().random(n)
    c = math.log1p(-(1.0 - u) ** alpha)
    assert res.empirical == float(np.mean(np.log(v) <= counts * c))
    assert not np.array_equal(v, rng.child(0).generator().random(n))


def test_min_uniform_u_domain():
    with pytest.raises(ValueError):
        check_min_uniform_space(ProcessParams(1.0, 0.5), 1.0, 1.5, 1000,
                                RngStream(0))


def test_ode_residual_small_on_true_pmf():
    assert check_ode_residual(ProcessParams(1.0, 0.6), 1.0, 10) < 1e-6


def test_ode_residual_flags_wrong_order():
    """Evaluating the operator with a mismatched order must leave a gap."""
    params = ProcessParams(1.0, 0.6)
    from fracpois import frac_ops
    t, K, h = 1.0, 10, 1e-4
    p_mid = np.array([r.p for r in dist.pmf_row(params, t, K)])
    p_hi = np.array([r.p for r in dist.pmf_row(params, t + h, K)])
    p_lo = np.array([r.p for r in dist.pmf_row(params, t - h, K)])
    dpdt = (p_hi - p_lo) / (2 * h)
    rhs = -(params.lam ** 0.9) * frac_ops.apply_frac_difference(p_mid, 0.9)
    assert np.max(np.abs(dpdt - rhs)) > 1e-2


def test_ode_residual_requires_nu_one():
    with pytest.raises(ValueError):
        check_ode_residual(ProcessParams(1.0, 0.5, 0.5), 1.0, 10)
    with pytest.raises(ValueError, match="K must be >= 1"):
        check_ode_residual(ProcessParams(1.0, 0.5), 1.0, 0)


def test_oracle_matches_series_pmf():
    for params in (ProcessParams(1.0, 0.5), ProcessParams(1.0, 0.7, 0.5),
                   ProcessParams(5.0, 0.3, 0.3)):
        for k in (0, 2, 7):
            ref = float(oracle_pmf(params, 1.0, k))
            got = dist.pmf(params, 1.0, k)
            assert abs(got.p - ref) <= got.abs_error_bound + 1e-15


def test_oracle_resolves_tiny_masses(panjer_row):
    """A mass of 1.2e-79 below terms of 1e95: the oracle measures the
    digits the sum cancels and redoes it with that many more."""
    ref = panjer_row(1.0, 0.5, 200.0, 5)[5]
    got = oracle_pmf(ProcessParams(1.0, 0.5), 200.0, 5)
    assert abs(got - ref) <= 1e-30 * ref


def test_oracle_poisson_case():
    v = float(oracle_pmf(ProcessParams(2.0), 1.0, 3))
    assert v == pytest.approx(math.exp(-2.0) * 8 / 6, rel=1e-13)
    # a rate x = lam * t that underflows a double: p_0 = exp(-x) rounds to
    # 1, and p_3 = exp(-x) * x**3 / 3! is x**3 / 3! to 40 digits
    tiny = ProcessParams(1e-300)
    assert oracle_pmf(tiny, 1e-300, 0) == 1
    with mp.workdps(50):
        x = mp.mpf(1e-300) ** 2
        assert abs(oracle_pmf(tiny, 1e-300, 3) / (x ** 3 / 6) - 1) < 1e-35


def test_oracle_t_zero():
    assert oracle_pmf(ProcessParams(1.0, 0.5), 0.0, 0) == 1
    assert oracle_pmf(ProcessParams(1.0, 0.5), 0.0, 4) == 0


def test_time_outside_domain_rejected():
    """Every time-taking check rejects a non-finite or negative t; the
    renewal loop would never end at t = inf, and the oracle's sum is
    complex at t < 0.  The renewal construction also refuses alpha < 1."""
    params = ProcessParams(1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="t must be finite"):
        oracle_pmf(ProcessParams(1.0, 0.5, 0.5), -1.0, 2)
    with pytest.raises(ValueError, match="requires alpha = 1"):
        verify.renewal_batch(ProcessParams(1.0, 0.5, 0.5), 1.0, 2,
                             RngStream(0))
    for t in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            verify.renewal_batch(params, t, 2, RngStream(0))
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            check_ode_residual(ProcessParams(1.0, 0.6), t, 10)
    for t in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            check_min_uniform_space(params, t, 0.5, 100, RngStream(0))
    assert check_min_uniform_space(params, 0.0, 0.5, 100,
                                   RngStream(0)).analytic == 1.0


def test_oracle_small_order_near_unit_argument():
    # term ratios s/Gamma-growth stay above 1/2 for ~1e7 terms here, so
    # the oracle must stop on the geometric tail itself
    s = 36 ** 0.05
    ref = oracle_pmf(ProcessParams(s, 1.0, 0.05), 1.0, 0)
    res = mittag_leffler(0.05, -s)
    assert abs(res.value - ref) <= res.abs_error_bound


def test_oracle_refuses_what_it_cannot_resolve(monkeypatch):
    """The oracle raises NonConvergence, not a value, where its sum runs
    past ORACLE_MAX_TERMS terms, and where no escalation of the precision
    resolves the digits its sum cancels."""
    params = ProcessParams(1.0, 0.5)
    monkeypatch.setattr(verify, "ORACLE_MAX_TERMS", 3)
    with pytest.raises(NonConvergence, match="exceeded max_terms"):
        oracle_pmf(params, 1.0, 2)
    monkeypatch.undo()
    # a sum of 0 resolves no digit, whatever the precision
    monkeypatch.setattr(verify, "_oracle_sum",
                        lambda *args: (mp.mpf(0), mp.mpf(1)))
    with pytest.raises(NonConvergence, match="cancels more than"):
        oracle_pmf(params, 1.0, 2)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(precision_digits=10)
    with pytest.raises(ValueError, match="k must be >= 0"):
        oracle_pmf(ProcessParams(1.0, 0.5), 1.0, -1)
    # a rate that overflows a double is refused as dist refuses it
    with pytest.raises(ValueError, match="the rate lam"):
        oracle_pmf(ProcessParams(1e300, 1.0, 0.7), 1e300, 0)


def test_fixture_round_trip(tmp_path):
    path = tmp_path / "oracle.txt"
    records = [(0.5, 1.0, 1.0, 1.0, k) for k in range(4)]
    write_fixture(path, records, OracleConfig(), meta="round trip")
    rows = load_fixture(path)
    assert len(rows) == 4
    for (a, nu, lam, t, k, v), (_, _, _, _, kk) in zip(rows, records):
        assert (a, nu, lam, t, k) == (0.5, 1.0, 1.0, 1.0, kk)
        ref = float(oracle_pmf(ProcessParams(1.0, 0.5), 1.0, k))
        assert v == pytest.approx(ref, rel=1e-15)


def test_check_fixture_on_small_table(tmp_path):
    path = tmp_path / "oracle.txt"
    write_fixture(path, [(0.7, 0.5, 1.0, 1.0, k) for k in range(6)],
                  OracleConfig())
    ok, failures = check_fixture(path)
    assert ok and not failures


def test_check_fixture_detects_corruption(tmp_path):
    path = tmp_path / "oracle.txt"
    with open(path, "w") as fh:
        fh.write("0.5 1.0 1.0 1.0 0 0.25\n")  # true value is exp(-1)
    ok, failures = check_fixture(path)
    assert not ok and len(failures) == 1


def test_packaged_fixture_loads():
    rows = load_fixture()
    assert len(rows) >= 1000
    combos = {(a, nu, lam) for a, nu, lam, _, _ in
              ((r[0], r[1], r[2], r[3], r[4]) for r in rows)}
    assert (0.3, 0.3, 5.0) in combos and (1.0, 1.0, 0.5) in combos


def test_two_stage_retries_once():
    calls = []

    def run(n, attempt):
        calls.append((n, attempt))
        return attempt == 1, n

    passed, payload = two_stage(run, 100)
    assert passed and payload == 1000
    assert calls == [(100, 0), (1000, 1)]


def test_two_stage_short_circuits_on_pass():
    passed, payload = two_stage(lambda n, attempt: (True, n), 100)
    assert passed and payload == 100


def test_chi2_tail_matches_scipy():
    stats = np.r_[0.0, np.geomspace(1e-3, 300.0, 12)]
    for dof in range(1, 61):
        for stat in stats:
            want = chi2.sf(stat, dof)
            assert verify._chi2_sf(stat, dof) == pytest.approx(want,
                                                               rel=1e-12)


def test_oracle_profile_matches_full_scan(profile_scans):
    """Same argmax and maximum, so the same working precision, as the
    full scan."""
    truncated = 0
    for alpha, nu, lam, k in ((0.3, 0.3, 30.0, 3), (0.3, 1.0, 1.0, 30),
                              (0.5, 0.5, 1e-3, 0), (0.7, 0.3, 1.0, 0),
                              (0.7, 1.0, 30.0, 30), (1.0, 0.3, 30.0, 3),
                              (1.0, 0.7, 1.0, 30), (1.0, 1.0, 1e-3, 3)):
        (rpeak, lpeak), size, full = profile_scans(
            verify, lambda: oracle_pmf(ProcessParams(lam, alpha, nu), 1.0, k))
        assert size <= full.size
        assert rpeak == np.argmax(full)
        assert lpeak == full.max()
        truncated += size < full.size
    assert truncated > 0
