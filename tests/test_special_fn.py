import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpois.dist import ProcessParams
from fracpois.special_fn import (EvalResult, NonConvergence, SeriesConfig,
                                 gamma_ratio_ff, mittag_leffler,
                                 wright_psi11_kernel,
                                 wright_psi11_weighted_rows)
from fracpois.verify import oracle_pmf

# E_{1/2}(-x) = exp(x^2) * erfc(x); frozen from a 40-digit evaluation
E_HALF_M1 = 0.4275835761558070044107503444905151808
# E_{0.3}(-8): 30-digit mpmath quadrature of the kernel integral, in
# agreement with verify.oracle_pmf
E_03_M8 = 0.089493095818620724136
E_HALF_M100 = 0.005641613782989432903556457006951550719
# E_{0.02}(-1), E_{0.05}(-1.2) and E_{0.05}(-1): 40-digit summation of the
# series; the first two agree with the kernel quadrature below
E_002_M1 = 0.4971138797066253078026243
E_005_M12 = 0.447352252610284767134533
E_005_M1 = 0.4927841512002519796721773
# frozen 40-digit summation of the k=1 kernel at alpha=0.5, w=-1, nu=1
KERNEL_HALF_K1 = -0.1839397205857211607977618850807304337


def test_gamma_ratio_ff_basic():
    assert gamma_ratio_ff(3.0, 2) == 6.0
    assert gamma_ratio_ff(0.5, 0) == 1.0
    assert gamma_ratio_ff(0.5, 3) == pytest.approx(0.375, abs=0)


def test_gamma_ratio_ff_rejects_negative_k():
    with pytest.raises(ValueError):
        gamma_ratio_ff(1.0, -1)


@given(z=st.floats(-20, 20), k=st.integers(0, 50))
def test_gamma_ratio_ff_recurrence(z, k):
    assert gamma_ratio_ff(z, k + 1) == pytest.approx(
        gamma_ratio_ff(z, k) * (z - k), rel=1e-12, abs=1e-250)


def test_mittag_leffler_at_zero_is_exact():
    assert mittag_leffler(0.7, 0.0).value == 1.0
    assert mittag_leffler(0.7, 0.0).abs_error_bound == 0.0


def test_mittag_leffler_exponential_case():
    res = mittag_leffler(1.0, -1.0)
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("x", [-0.5, -1.0, -5.0, -12.0, -20.0, -30.0])
def test_mittag_leffler_matches_exp_down_to_minus_30(x):
    res = mittag_leffler(1.0, x)
    assert res.value == pytest.approx(math.exp(x), rel=1e-12)


def test_mittag_leffler_half_against_erfc_identity():
    res = mittag_leffler(0.5, -1.0)
    assert abs(res.value - E_HALF_M1) <= res.abs_error_bound + 1e-15


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.7, 0.9])
def test_mittag_leffler_nonincreasing(nu):
    xs = [-20.0 * (1.0 - i / 10.0) for i in range(11)]
    vals = [mittag_leffler(nu, x).value for x in xs]
    # xs ascend towards 0, so values must not decrease along the grid
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    assert all(v > 0 for v in vals)


def _within_bound(res, ref):
    with mp.workdps(40):
        return abs(mp.mpf(res.value) - ref) <= res.abs_error_bound


def _kernel_integral(nu, x):
    """E_nu(x), x < 0, by adaptive mpmath quadrature at 30 digits of
    sin(nu pi)/(nu pi) int_0^inf exp(-(|x| y)**(1/nu)) / D(y) dy, split at
    the scale of the exponential and around the peak of 1/D."""
    with mp.workdps(30):
        nu, s = mp.mpf(nu), -mp.mpf(x)
        c, sn = mp.cospi(nu), mp.sinpi(nu)

        def f(y):
            return mp.exp(-(s * y) ** (1 / nu)) / ((y + c) ** 2 + sn ** 2)

        pts = {mp.mpf(0), 1 / s, 2 / s, 4 / s, mp.mpf(1)}
        if c < 0:
            pts |= {-c + d * sn for d in (-10, -1, -0.1, 0, 0.1, 1, 10)}
        pts = sorted(p for p in pts if p >= 0) + [mp.inf]
        return mp.quad(f, pts, maxdegree=10) * sn / (nu * mp.pi)


# Both engines: the series' peak term is about exp(|x|**(1/nu)), and past
# ~1e15.65 (|x|**(1/nu) > ~36) mittag_leffler switches to the integral.

@settings(max_examples=40, deadline=None)
@given(x=st.floats(-100.0, 0.0))
def test_mittag_leffler_bound_holds_half_order(x):
    with mp.workdps(40):
        ref = mp.exp(mp.mpf(x) ** 2) * mp.erfc(-mp.mpf(x))
    assert _within_bound(mittag_leffler(0.5, x), ref)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.3, 0.999), z=st.floats(1e-3, 60.0))
def test_mittag_leffler_bound_holds_against_oracle(nu, z):
    # the oracle is fast only while the peak term exp(z) stays moderate
    s = z ** nu
    ref = oracle_pmf(ProcessParams(s, 1.0, nu), 1.0, 0)
    assert _within_bound(mittag_leffler(nu, -s), ref)


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(0.05, 0.999), x=st.floats(-100.0, -1e-3))
def test_mittag_leffler_bound_holds_against_kernel_quadrature(nu, x):
    assert _within_bound(mittag_leffler(nu, x), _kernel_integral(nu, x))


@given(x=st.floats(-100.0, 0.0))
def test_mittag_leffler_bound_holds_at_order_one(x):
    with mp.workdps(40):
        ref = mp.exp(mp.mpf(x))
    assert _within_bound(mittag_leffler(1.0, x), ref)


@pytest.mark.parametrize("nu,x,ref", [(0.3, -8.0, E_03_M8),
                                      (0.5, -100.0, E_HALF_M100),
                                      (0.02, -1.0, E_002_M1),
                                      (0.05, -1.2, E_005_M12)])
def test_mittag_leffler_bounded_cost(nu, x, ref):
    # the series needs ~9.4k terms at 482 digits for the first, more than
    # max_terms for the second, and ~9.7k and ~6.3k terms for the last two,
    # whose term ratios stay above 0.9 long after the terms are small
    res = mittag_leffler(nu, x)
    assert res.terms_used <= 2000
    assert res.abs_error_bound <= 1e-12 * res.value
    assert abs(res.value - ref) <= res.abs_error_bound


def test_mittag_leffler_domain_errors():
    with pytest.raises(ValueError):
        mittag_leffler(1.5, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0)


def test_nonconvergence_when_max_terms_too_small():
    with pytest.raises(NonConvergence):
        mittag_leffler(0.5, -25.0, SeriesConfig(max_terms=20))


def test_kernel_reduces_to_exp():
    res = wright_psi11_kernel(1.0, 0, -2.0)
    assert res.value == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_double_mode_escalates_instead_of_losing_digits():
    # E_1(-30): the series cancels about 26 digits, far beyond a double's
    # headroom; the engine must size its precision and stay accurate
    res = mittag_leffler(1.0, -30.0)
    assert res.value == pytest.approx(math.exp(-30.0), rel=1e-12)
    # the same cancellation through the kernel's series
    res = wright_psi11_kernel(1.0, 0, -30.0)
    assert res.value == pytest.approx(math.exp(-30.0), rel=1e-12)


def test_series_bound_delivers_rel_tol():
    # terms fall slowly here (ratio near 0.9), so a rule that stops on the
    # last term alone reports a geometric tail of several times rel_tol
    res = wright_psi11_kernel(1.0, 0, -1.0, 0.05)
    assert res.abs_error_bound <= 1e-12 * abs(res.value) * (1 + 1e-3)
    assert abs(res.value - E_005_M1) <= res.abs_error_bound


def test_kernel_zero_argument():
    assert wright_psi11_kernel(0.5, 0, 0.0).value == 1.0
    assert wright_psi11_kernel(0.5, 3, 0.0).value == 0.0


def test_kernel_against_frozen_oracle():
    res = wright_psi11_kernel(0.5, 1, -1.0)
    assert abs(res.value - KERNEL_HALF_K1) <= res.abs_error_bound + 1e-15


def test_weighted_rows_match_scalar_kernel():
    rows = wright_psi11_weighted_rows(0.5, 4, -1.0)
    for k, row in enumerate(rows):
        raw = wright_psi11_kernel(0.5, k, -1.0)
        expect = (-1) ** k * raw.value / math.factorial(k)
        assert row.value == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("alpha,k,w,nu", [
    (0.5, 1, -1.0, 1.0), (0.3, 5, -3.0, 0.5), (0.7, 0, -8.0, 0.7),
    (1.0, 2, -5.0, 0.3),
])
def test_error_certificate_is_conservative(alpha, k, w, nu):
    """Refining the evaluation must stay inside the reported bound."""
    coarse = wright_psi11_kernel(alpha, k, w, nu, SeriesConfig(rel_tol=1e-8))
    fine = wright_psi11_kernel(alpha, k, w, nu,
                               SeriesConfig(rel_tol=1e-14, max_terms=20_000))
    assert abs(coarse.value - fine.value) <= \
        coarse.abs_error_bound + fine.abs_error_bound


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesConfig(max_terms=0)


def test_eval_result_reports_term_count():
    res = mittag_leffler(1.0, -1.0, SeriesConfig(max_terms=100))
    assert isinstance(res, EvalResult)
    assert 1 <= res.terms_used <= 100
