import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpois import dist, verify
from fracpois.dist import ProcessParams
from fracpois.special_fn import SeriesConfig

# frozen 40-digit oracle values (direct extended-precision summation)
P_SPACE_HALF = [  # alpha=0.5, nu=1, lam=1, t=1, k=0..3
    0.3678794411714423215955237701614608674,
    0.1839397205857211607977618850807304337,
    0.0919698602928605803988809425403652168,
    0.0536490851708353385660138831485463765,
]
P_ST_HALF = [  # alpha=0.5, nu=0.5, lam=1, t=1, k=0..3
    0.4275835761558070044107503444905151808,
    0.1366060073919492825373291070702574050,
    0.0727443921909644304683553093550644439,
    0.0462755672131480590457248283267417585,
]
TF_P1_NU_HALF = 0.2732120147838985650746582141405148100
E_HALF_M1 = 0.4275835761558070044107503444905151808


def test_params_validation():
    with pytest.raises(ValueError):
        ProcessParams(0.0)
    with pytest.raises(ValueError):
        ProcessParams(1.0, alpha=1.2)
    with pytest.raises(ValueError):
        ProcessParams(1.0, nu=0.0)


def test_poisson_reduction():
    params = ProcessParams(1.0)
    row = dist.pmf(params, 1.0, 2)
    assert row.p == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-14)


def test_initial_condition_at_t_zero():
    params = ProcessParams(1.0, 0.5, 0.5)
    assert dist.pmf(params, 0.0, 0).p == 1.0
    assert dist.pmf(params, 0.0, 3).p == 0.0


def test_k_zero_closed_forms():
    assert dist.pmf(ProcessParams(2.0, 0.5), 1.0, 0).p == \
        pytest.approx(math.exp(-math.sqrt(2.0)), rel=1e-14)
    res = dist.pmf(ProcessParams(1.0, 1.0, 0.5), 1.0, 0)
    assert res.p == pytest.approx(E_HALF_M1, rel=1e-11)


@pytest.mark.parametrize("k", range(4))
def test_space_fractional_pmf_against_oracle(k):
    row = dist.pmf(ProcessParams(1.0, 0.5), 1.0, k)
    assert abs(row.p - P_SPACE_HALF[k]) <= row.abs_error_bound + 1e-15


@pytest.mark.parametrize("k", range(4))
def test_space_time_pmf_against_oracle(k):
    row = dist.pmf(ProcessParams(1.0, 0.5, 0.5), 1.0, k)
    assert abs(row.p - P_ST_HALF[k]) <= row.abs_error_bound + 1e-14


def test_pmf_row_consistent_with_scalar():
    params = ProcessParams(1.0, 0.7, 0.6)
    rows = dist.pmf_row(params, 1.5, 6)
    for k in (0, 3, 6):
        assert rows[k].p == pytest.approx(dist.pmf(params, 1.5, k).p,
                                          rel=1e-10)


def test_time_fractional_direct_poisson_case():
    row = dist.pmf_time_fractional_direct(ProcessParams(1.0), 2.0, 3)
    assert row.p == pytest.approx(math.exp(-2.0) * 8.0 / 6.0, rel=1e-13)


def test_time_fractional_direct_k0_is_mittag_leffler():
    row = dist.pmf_time_fractional_direct(ProcessParams(1.0, 1.0, 0.5),
                                          1.0, 0)
    assert abs(row.p - E_HALF_M1) <= row.abs_error_bound + 1e-14


def test_time_fractional_two_series_agree():
    for nu in (0.3, 0.5, 0.7):
        params = ProcessParams(1.0, 1.0, nu)
        for k in (0, 1, 4, 9):
            a = dist.pmf(params, 1.0, k)
            b = dist.pmf_time_fractional_direct(params, 1.0, k)
            assert abs(a.p - b.p) <= \
                a.abs_error_bound + b.abs_error_bound + 1e-10


def test_time_fractional_direct_frozen_value():
    row = dist.pmf_time_fractional_direct(ProcessParams(1.0, 1.0, 0.5),
                                          1.0, 1)
    assert abs(row.p - TF_P1_NU_HALF) <= row.abs_error_bound + 1e-13


@pytest.mark.parametrize("nu", [0.05, 0.3, 0.7, 0.95])
def test_direct_form_profile_matches_full_scan(profile_scans, nu):
    """Same argmax and maximum, so the same working precision, as the
    full scan."""
    truncated = 0
    for lam in (1e-3, 1.0, 8.0, 60.0):
        for k in (0, 1, 10, 100):
            scan, full = profile_scans(
                dist, lambda: dist.pmf_time_fractional_direct(
                    ProcessParams(lam, 1.0, nu), 1.0, k))
            assert np.array_equal(scan, full[:scan.size])
            assert np.argmax(scan) == np.argmax(full)
            assert scan.max() == full.max()
            truncated += scan.size < full.size
    assert truncated > 0


def test_pgf_normalization_and_poisson_case():
    assert dist.pgf(ProcessParams(3.0, 0.4, 0.6), 2.0, 1.0).value == 1.0
    assert dist.pgf(ProcessParams(2.0), 1.0, 0.5).value == \
        pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pgf_at_zero_equals_p0():
    params = ProcessParams(1.0, 0.5)
    assert dist.pgf(params, 1.0, 0.0).value == \
        pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pgf_domain():
    with pytest.raises(ValueError):
        dist.pgf(ProcessParams(1.0), 1.0, 1.5)


def test_pgf_partial_sum_converges_to_pgf():
    for params in (ProcessParams(1.0, 0.5), ProcessParams(1.0, 0.7, 0.5)):
        target = dist.pgf(params, 1.0, 0.5).value
        approx = dist.pgf_partial_sum(params, 1.0, 0.5, 200)
        assert abs(approx.value - target) < 1e-8


def test_pgf_time_derivative_cauchy_problem():
    """d/dt G + lam**alpha * (1-u)**alpha * G = 0 at nu=1, and G(u,0+)=1."""
    params = ProcessParams(1.3, 0.6)
    u, t, h = 0.4, 0.8, 1e-5
    g = dist.pgf(params, t, u).value
    dg = (dist.pgf(params, t + h, u).value
          - dist.pgf(params, t - h, u).value) / (2 * h)
    assert dg == pytest.approx(
        -params.lam ** 0.6 * (1 - u) ** 0.6 * g, rel=1e-8)
    assert dist.pgf(params, 1e-12, u).value == pytest.approx(1.0, abs=1e-10)


def test_cdf_monotone_and_equals_p0_at_k0():
    params = ProcessParams(1.0, 0.5)
    c0 = dist.cdf(params, 1.0, 0)
    assert c0.value == pytest.approx(dist.pmf(params, 1.0, 0).p)
    prev = 0.0
    for k in range(8):
        c = dist.cdf(params, 1.0, k).value
        assert c >= prev
        prev = c
    assert prev < 1.0  # heavy tail keeps mass above any finite k


def test_cdf_approaches_one_for_poisson():
    assert dist.cdf(ProcessParams(1.0), 1.0, 40).value == \
        pytest.approx(1.0, abs=1e-12)


def test_first_passage_cdf_level_zero_is_one():
    assert dist.first_passage_cdf(ProcessParams(1.0, 0.5), 1.0, 0).value == 1.0


def test_first_passage_cdf_erlang_reduction():
    res = dist.first_passage_cdf(ProcessParams(1.0), 2.0, 1)
    assert res.value == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13)


def test_first_passage_cdf_complement_form():
    params = ProcessParams(1.0, 0.5)
    res = dist.first_passage_cdf(params, 1.0, 2)
    assert res.value == pytest.approx(
        1.0 - P_SPACE_HALF[0] - P_SPACE_HALF[1], rel=1e-11)


def test_first_passage_density_erlang():
    assert dist.first_passage_density(ProcessParams(1.0), 2.0, 1).value == \
        pytest.approx(math.exp(-2.0), abs=1e-14)
    assert dist.first_passage_density(ProcessParams(2.0), 1.0, 3).value == \
        pytest.approx(4.0 * math.exp(-2.0), abs=1e-13)


def test_first_passage_density_closed_form_check():
    # k=1: density = d/dt (1 - exp(-lam**alpha * t)) = lam**alpha * p_0
    res = dist.first_passage_density(ProcessParams(2.0, 0.5), 1.0, 1)
    expect = math.sqrt(2.0) * math.exp(-math.sqrt(2.0))
    assert res.value == pytest.approx(expect, rel=1e-11)


def test_first_passage_density_matches_finite_difference():
    params = ProcessParams(1.0, 0.6)
    t, k, h = 1.2, 3, 1e-5
    fd = (dist.first_passage_cdf(params, t + h, k).value
          - dist.first_passage_cdf(params, t - h, k).value) / (2 * h)
    res = dist.first_passage_density(params, t, k)
    assert res.value == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("k", [1, 2])
def test_erlang_passage_underflowing_mean(k):
    """lam * t underflows to 0: Pr{tau_k < t} <= lam * t, and the density
    is lam times the Poisson mass at k - 1, within ulp(0)."""
    cdf, dens = dist.first_passage(ProcessParams(1e-200), 1e-200, k)
    assert cdf.value == 0.0 and cdf.abs_error_bound >= math.ulp(0.0)
    assert dens.value == (1e-200 if k == 1 else 0.0)
    assert dens.abs_error_bound >= math.ulp(0.0)


def test_first_passage_requires_nu_one():
    with pytest.raises(ValueError):
        dist.first_passage_cdf(ProcessParams(1.0, 0.5, 0.5), 1.0, 1)


def _erf_integral(lam, t, k):
    """E[erf(t*sqrt(lam) / (2*sqrt(G)))], G ~ Gamma(k+1), by 30-digit
    quadrature split about the mode of G."""
    with mp.workdps(30):
        c = mp.mpf(t) * mp.sqrt(lam) / 2
        lk = mp.loggamma(k + 1)

        def f(g):
            return mp.erf(c / mp.sqrt(g)) * mp.exp(k * mp.log(g) - g - lk)

        sd = mp.sqrt(k + 1)
        cuts = sorted({mp.mpf(0), *(max(0, k + 1 + j * sd)
                                    for j in (-12, -4, 0, 4, 12))})
        return mp.quad(f, cuts + [mp.inf])


@pytest.mark.parametrize("k, lam, t", [(0, 1.0, 1.0), (3, 1.0, 1.0),
                                       (10, 0.5, 7.0), (100, 3.0, 0.2),
                                       (1000, 1.0, 1.0), (10_000, 0.5, 7.0)])
def test_survival_subordination_matches_erf_integral(k, lam, t):
    """Pr{N(t) > k} = Pr{tau_{k+1} < t} at alpha = 1/2 within its bound of
    the subordination integral E[erf(c / sqrt(G))]."""
    sv = dist.first_passage_cdf(ProcessParams(lam, 0.5), t, k + 1)
    ref = _erf_integral(lam, t, k)
    assert abs(mp.mpf(sv.value) - ref) <= sv.abs_error_bound


@pytest.mark.parametrize("lam, alpha, t, kmax", [
    (1.0, 0.5, 1.0, 60), (1.0, 0.5, 745.0, 40), (1.0, 0.5, 760.0, 40),
    (1.0, 0.3, 720.0, 200), (2.0, 0.05, 3.0, 300), (1.0, 0.999, 2.0, 80),
    (5.0, 0.7, 10.0, 100)])
def test_space_fractional_rows_bound_holds_against_panjer(panjer_row, lam,
                                                          alpha, t, kmax):
    """Every mass of the row within its own bound, with no slack, of a
    60-digit Panjer recursion; at t = 745 and 760 the masses are
    subnormal or underflow to 0."""
    rows = dist.pmf_row(ProcessParams(lam, alpha), t, kmax)
    for row, ref in zip(rows, panjer_row(lam, alpha, t, kmax)):
        assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


def test_series_fails_fast_past_max_terms(monkeypatch):
    """A series whose terms peak past max_terms raises NonConvergence
    before any mpmath work."""
    def fail(*args):
        raise AssertionError("gamma function called")

    monkeypatch.setattr(mp, "rgamma", fail)
    with pytest.raises(dist.NonConvergence):
        dist.pmf_row(ProcessParams(1.0, 1.0, 0.5), 1e4, 2)


def test_non_finite_inputs_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ProcessParams(bad)
        with pytest.raises(ValueError):
            dist.pgf(ProcessParams(1.0), 1.0, bad)
        for call in (dist.pmf_row, dist.pmf, dist.first_passage_cdf,
                     dist.first_passage_density):
            with pytest.raises(ValueError):
                call(ProcessParams(1.0, 0.5), bad, 2)
        with pytest.raises(ValueError):
            dist.pgf(ProcessParams(1.0, 1.0, 0.5), bad, 0.5)


def test_nonconvergence_propagates():
    cfg = SeriesConfig(max_terms=5)
    with pytest.raises(dist.NonConvergence):
        dist.pmf(ProcessParams(5.0, 1.0, 0.5), 1.0, 3, cfg)


def test_space_fractional_rows_need_no_gamma(monkeypatch):
    """At nu = 1 the alpha < 1 rows are Poisson masses composed with the
    Sibuya law: no mpmath gamma and no alternating series, however long
    the row or however small its masses."""
    def fail(*args):
        raise AssertionError("gamma function called")

    monkeypatch.setattr(mp, "rgamma", fail)
    monkeypatch.setattr(mp, "gamma", fail)
    for t, kmax in ((1.0, 1000), (1000.0, 30)):
        rows = dist.pmf_row(ProcessParams(1.0, 0.5), t, kmax)
        assert len(rows) == kmax + 1
        assert all(row.p >= 0 for row in rows)
        assert sum(row.p for row in rows) <= \
            1 + sum(row.abs_error_bound for row in rows)


# Closed-form branches: |value - exact| <= bound, the exact value from
# 50-digit mpmath on the same double inputs.  The examples are points
# where a flat 5e-16 relative bound failed.

@settings(deadline=None)
@given(mu=st.floats(1e-3, 1e4), k=st.integers(0, 3000))
@example(mu=1e4, k=10_000)
@example(mu=300.0, k=250)
@example(mu=5.0, k=3)
def test_poisson_branch_bound_holds(mu, k):
    row = dist.pmf_row(ProcessParams(mu), 1.0, k)[k]
    with mp.workdps(50):
        m = mp.mpf(mu)
        exact = mp.exp(-m) * m ** k / mp.factorial(k)
        assert abs(mp.mpf(row.p) - exact) <= row.abs_error_bound


@settings(deadline=None)
@given(lam=st.floats(0.01, 100.0), alpha=st.floats(0.05, 1.0),
       t=st.floats(0.01, 100.0), u=st.floats(-1.0, 1.0),
       k=st.integers(1, 200))
def test_exp_branch_bounds_hold(lam, alpha, t, u, k):
    params = ProcessParams(lam, alpha)
    p0 = dist.pmf(params, t, 0)
    g = dist.pgf(params, t, u)
    dens = dist.first_passage_density(ProcessParams(lam), t, k)
    with mp.workdps(50):
        a = mp.mpf(lam) ** alpha
        assert abs(mp.mpf(p0.p) - mp.exp(-a * t)) <= p0.abs_error_bound
        exact = mp.exp(-a * (1 - mp.mpf(u)) ** alpha * t)
        assert abs(mp.mpf(g.value) - exact) <= g.abs_error_bound
        mu = mp.mpf(lam) * t
        exact = lam * mu ** (k - 1) * mp.exp(-mu) / mp.factorial(k - 1)
        assert abs(mp.mpf(dens.value) - exact) <= dens.abs_error_bound


# Series paths against references that share no code with them, with no
# slack: |value - reference| <= abs_error_bound.

def _density_reference(lam, alpha, t, k):
    """tau_k density at 60 digits, summed term by term from
    -sum_{m<k} d/dt p_m = lam**alpha * sum_{m<k} ((-1)**m/m!) *
    sum_{s>=0} (-lam**alpha*t)**s/s! * ffact(alpha*(s+1), m)."""
    with mp.workdps(60):
        a, al = mp.mpf(lam) ** alpha, mp.mpf(alpha)
        total = mp.mpf(0)
        for m in range(k):
            s_sum, s, base = mp.mpf(0), 0, mp.mpf(1)
            while True:
                ff = mp.mpf(1)
                for j in range(m):
                    ff *= al * (s + 1) - j
                term = base * ff
                s_sum += term
                if s > 2 * a * t + m + 10 and abs(term) < mp.mpf(10) ** -65:
                    break
                s += 1
                base *= -a * t / s
            total += (-1) ** m / mp.factorial(m) * s_sum
        return a * total


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.3, 0.999), nu=st.floats(0.3, 0.999),
       t=st.floats(0.2, 3.0), k=st.integers(0, 30))
@example(alpha=0.5, nu=1.0, t=3.0, k=30)
@example(alpha=0.05, nu=0.5, t=1.0, k=30)
def test_series_rows_bound_holds_against_oracle(alpha, nu, t, k):
    params = ProcessParams(1.0, alpha, nu)
    row = dist.pmf_row(params, t, k)[k]
    ref = verify.oracle_pmf(params, t, k)
    assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


@settings(max_examples=25, deadline=None)
@given(nu=st.floats(0.3, 0.999), t=st.floats(0.2, 3.0),
       k=st.integers(0, 30))
def test_direct_form_bound_holds_against_oracle(nu, t, k):
    params = ProcessParams(1.0, 1.0, nu)
    row = dist.pmf_time_fractional_direct(params, t, k)
    ref = verify.oracle_pmf(params, t, k)
    assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


@pytest.mark.parametrize("k", [21, 24, 27])
def test_time_fractional_bounds_hold_with_rounded_argument(k):
    # lam * t**nu rounds to a double before any series sees it; the rows
    # must bound the masses at the exact argument
    params = ProcessParams(0.9, 1.0, 0.97)
    ref = verify.oracle_pmf(params, 4.3, k)
    for row in (dist.pmf_row(params, 4.3, 30)[k],
                dist.pmf_time_fractional_direct(params, 4.3, k)):
        assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


def test_last_row_bound_holds_with_rounded_argument():
    # the mass after the last row is bounded, not computed
    params = ProcessParams(0.5, 1.0, 0.7)
    rows = dist.pmf_row(params, 3.7, 30, SeriesConfig(rel_tol=1e-20))
    for row in rows[-3:]:
        ref = verify.oracle_pmf(params, 3.7, row.k)
        assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


def _sum_reference(params, t, kmax, u):
    return mp.fsum(verify.oracle_pmf(params, t, k) * mp.mpf(u) ** k
                   for k in range(kmax + 1))


@pytest.mark.parametrize("name, params, args, ref", [
    ("cdf", ProcessParams(1.0, 1.0, 0.3), (30,), (30, 1)),
    ("pgf_partial_sum", ProcessParams(1.0, 1.0, 0.5), (0.5, 40), (40, 0.5)),
], ids=["cdf", "pgf_partial_sum"])
def test_row_sum_bounds_hold_against_oracle(name, params, args, ref):
    # each row lies within its bound; the rounding of the sum must count too
    res = getattr(dist, name)(params, 1.0, *args)
    assert abs(mp.mpf(res.value) - _sum_reference(params, 1.0, *ref)) \
        <= res.abs_error_bound


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.5, 2.0), alpha=st.floats(0.3, 0.999),
       t=st.floats(0.2, 3.0), k=st.integers(1, 10))
def test_first_passage_density_bound_holds(lam, alpha, t, k):
    res = dist.first_passage_density(ProcessParams(lam, alpha), t, k)
    ref = _density_reference(lam, alpha, t, k)
    assert abs(mp.mpf(res.value) - ref) <= res.abs_error_bound


@pytest.mark.parametrize("params", [ProcessParams(1.0, 0.5, 1.0),
                                    ProcessParams(0.5, 1.0, 0.7)])
def test_rows_with_exact_zero_terms_match_oracle(params):
    # r in the series (alpha*r in the oracle's) hits the integers j < k, so
    # whole runs of terms are exactly zero, and tiny negative terms must
    # truncate towards zero
    rows = dist.pmf_row(params, 1.0, 30)
    for row in rows:
        ref = verify.oracle_pmf(params, 1.0, row.k)
        assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


@pytest.mark.parametrize("x,k", [(10.952592355277854, 11), (0.5, 1),
                                 (100.3, 100), (2999.0, 3000)])
def test_erlang_passage_cdf_bound_holds_near_mode(x, k):
    res = dist.first_passage_cdf(ProcessParams(1.0), x, k)
    with mp.workdps(40):
        ref = mp.gammainc(k, 0, x, regularized=True)
        assert abs(mp.mpf(res.value) - ref) <= res.abs_error_bound


@settings(max_examples=100, deadline=None)
@given(x=st.floats(1e-3, 1e4), k=st.integers(1, 3000))
def test_erlang_passage_cdf_bound_holds(x, k):
    res = dist.first_passage_cdf(ProcessParams(1.0), x, k)
    with mp.workdps(40):
        ref = mp.gammainc(k, 0, x, regularized=True)
        assert abs(mp.mpf(res.value) - ref) <= res.abs_error_bound
