import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpois import cli, dist, special_fn
from fracpois.dist import ProcessParams, pmf_row
from fracpois.special_fn import (EvalResult, NonConvergence, SeriesConfig,
                                 mittag_leffler, wright_psi11_weighted_rows)
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


# The contour serves every row; the references below share no code with it.

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
    # whose term ratios stay above 0.9 long after the terms are small: the
    # contour serves all four, a few dozen nodes
    res = mittag_leffler(nu, x)
    assert res.terms_used <= 2000
    assert res.abs_error_bound <= 1e-12 * res.value
    assert abs(res.value - ref) <= res.abs_error_bound


def _asymptotic(nu, x, k=0):
    """p_k of the time-fractional row at rate x >> 1 (k = 0: E_nu(-x)) by
    the first 11 terms of its asymptotic series, differentiated term by
    term, at 50 digits: sum_j (-1)**(j+1) C(j+k-1, k) x**-j / Gamma(1-nu*j).
    Past x = 1e15 the terms left out are below 1e-150 of the sum."""
    with mp.workdps(50):
        x = mp.mpf(x)
        return mp.fsum((-1) ** (j + 1) * mp.binomial(j + k - 1, k) * x ** -j
                       * mp.rgamma(1 - nu * j) for j in range(1, 12))


@pytest.mark.parametrize("nu,x", [(0.185, -1e42), (0.395, -1e18),
                                  (0.02, -1e15), (0.9, -1e250),
                                  (0.5, -1.7976931348623157e308)])
def test_mittag_leffler_large_arguments(nu, x):
    """Far out on the axis E_nu(-s) ~ 1/(s*Gamma(1 - nu)): each value lies
    within its bound of the asymptotic series, with its bound within
    rel_tol.  Once 9x too large for its bound (the first two), a math
    domain error (the third and the largest double) or NonConvergence
    (the fourth)."""
    res = mittag_leffler(nu, x)
    assert res.abs_error_bound <= ((1e-12 + 2.0 ** -52) * res.value
                                   + math.ulp(0.0))
    assert _within_bound(res, _asymptotic(nu, -x))


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(0.005, 0.995), lx=st.floats(15.0, 300.0))
def test_mittag_leffler_bound_holds_against_asymptotic_series(nu, lx):
    x = 10.0 ** lx
    assert _within_bound(mittag_leffler(nu, -x), _asymptotic(nu, x))


@pytest.mark.parametrize("lam,nu", [(1e60, 0.5), (1e100, 0.3)])
def test_contour_rows_at_large_rates(lam, nu):
    """For x >> |s|**nu the contour's integrand is about A/x: its
    truncation bounds must fall with 1/x, as p_k does, or no row is
    certified here."""
    for row in pmf_row(ProcessParams(lam, 1.0, nu), 1.0, 3):
        with mp.workdps(50):
            assert abs(mp.mpf(row.p) - _asymptotic(nu, lam, row.k)) <= \
                row.abs_error_bound


def test_mittag_leffler_domain_errors():
    with pytest.raises(ValueError):
        mittag_leffler(1.5, -1.0)
    for x in (1.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, x)
    for nu in (0.0, 1.5):
        with pytest.raises(ValueError, match="time_nu must lie in"):
            wright_psi11_weighted_rows(0, ((1.0, 1.0),), nu)
    with pytest.raises(ValueError, match="k must be >= 0"):
        wright_psi11_weighted_rows(-1, ((1.0, 1.0),), 0.5)


def test_nonconvergence_when_max_terms_too_small():
    with pytest.raises(NonConvergence):
        mittag_leffler(0.5, -25.0, SeriesConfig(max_terms=20))


def test_double_mode_escalates_instead_of_losing_digits():
    # E_1(-30): the series cancels about 26 digits, far beyond a double's
    # headroom; the engine must size its precision and stay accurate
    res = mittag_leffler(1.0, -30.0)
    assert res.value == pytest.approx(math.exp(-30.0), rel=1e-12)
    # a like cancellation through the direct series, E_.97(-30), within
    # rel_tol and within the sum of its bound and the contour's
    direct = dist.pmf_time_fractional_direct(ProcessParams(30.0, 1.0, 0.97),
                                             1.0, 0)
    res = mittag_leffler(0.97, -30.0)
    assert direct.abs_error_bound <= 2e-12 * direct.p
    assert abs(direct.p - res.value) <= (direct.abs_error_bound
                                         + res.abs_error_bound)


def test_series_bound_delivers_rel_tol():
    # terms fall slowly here (ratio near 0.9), so a rule that stops on the
    # last term alone reports a geometric tail of several times rel_tol
    res = wright_psi11_weighted_rows(0, ((1.0, 1.0),), 0.05)[0]
    assert res.abs_error_bound <= 1e-12 * abs(res.value) * (1 + 1e-3)
    assert abs(res.value - E_005_M1) <= res.abs_error_bound


def test_kernel_zero_argument():
    assert wright_psi11_weighted_rows(0, ((0.0, 1.0),), 0.5)[0].value == 1.0
    assert wright_psi11_weighted_rows(3, ((0.0, 1.0),), 0.5)[3].value == 0.0


def test_rows_at_order_one_are_poisson():
    """At nu = 1 the row is Poisson(x), x = lam * t: each mass is
    exp(-x + k log x - lgamma(k+1)), bounded through the condition sum of
    its log, bit for bit.  An x that underflows gives the x = 0 row with
    bounds ulp(0), t = 0 the exact one; and E_1(0) = exp(0) is exact."""
    for lam, t in ((0.3, 1.0), (7.5, 2.0), (700.0, 1.0)):
        x = lam * t
        row = wright_psi11_weighted_rows(40, ((lam, 1.0), (t, 1.0)), 1.0)
        for k, r in enumerate(row):
            lg = math.lgamma(k + 1)
            p = math.exp(-x + k * math.log(x) - lg)
            cond = x + k * abs(math.log(x)) + lg
            assert (r.value, r.abs_error_bound) == \
                (p, special_fn._exp_error_bound(p, cond))
    for lam, t, bound in ((1e-300, 1e-300, math.ulp(0.0)), (2.0, 0.0, 0.0)):
        row = wright_psi11_weighted_rows(40, ((lam, 1.0), (t, 1.0)), 1.0)
        assert [(r.value, r.abs_error_bound) for r in row] == \
            [(1.0, bound)] + [(0.0, bound)] * 40
    for x in (0.0, -0.0):
        assert mittag_leffler(1.0, x) == EvalResult(1.0, 0.0, 1)


@pytest.mark.parametrize("alpha,k,w,nu", [
    (0.5, 1, -1.0, 1.0), (0.3, 5, -3.0, 0.5), (0.7, 0, -8.0, 0.7),
    (1.0, 2, -5.0, 0.3),
])
def test_error_certificate_is_conservative(alpha, k, w, nu):
    """Refining the evaluation must stay inside the reported bound.  The
    law (lam, alpha, nu) at t = 1 with lam**alpha = -w: at nu < 1 its
    alpha = 1 row is the series at w, composed with the Sibuya law at
    alpha < 1."""
    params = ProcessParams((-w) ** (1 / alpha), alpha, nu)
    coarse = pmf_row(params, 1.0, k, SeriesConfig(rel_tol=1e-8))[k]
    fine = pmf_row(params, 1.0, k,
                   SeriesConfig(rel_tol=1e-14, max_terms=20_000))[k]
    assert abs(coarse.p - fine.p) <= \
        coarse.abs_error_bound + fine.abs_error_bound


@pytest.mark.parametrize("kmax,w,nu", [
    (30, -5.0, 0.3), (10, -3.0, 0.5), (30, -10.0, 0.97),
])
def test_series_rounding_certificate(monkeypatch, kmax, w, nu):
    """At rel_tol=1e-60 rounding dominates the bound of the direct series:
    a rerun 60 digits more precise must land within it at k = 0, 1, kmax/2
    and kmax.  The prescan's peak sets the precision and the summation
    grid, 40 digits and more below the peak term; each case here peaks
    above 1e-8, so that its grid is not coarsened by the 32-digit floor of
    the precision."""
    cfg = SeriesConfig(rel_tol=1e-60)
    params = ProcessParams(-w, 1.0, nu)

    def sums():
        seen = []

        def recorded(*args):
            seen.append(special_fn._sum_series(*args))
            return seen[-1]

        monkeypatch.setattr(dist, "_sum_series", recorded)
        for k in (0, 1, kmax // 2, kmax):
            dist.pmf_time_fractional_direct(params, 1.0, k, cfg)
        return seen

    found = sums()
    scan = special_fn._scan_profile

    def shifted(*args):
        # 60 digits more precision, on the same grid
        rpeak, lpeak = scan(*args)
        return rpeak, lpeak + 60 * math.log(10.0)

    monkeypatch.setattr(dist, "_scan_profile", shifted)
    refs = sums()
    with mp.workdps(400):
        for (v, b, _), (ref, rb, _) in zip(found, refs):
            assert rb <= b and abs(v - ref) <= b


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesConfig(max_terms=0)


def test_eval_result_reports_term_count():
    res = mittag_leffler(1.0, -1.0, SeriesConfig(max_terms=100))
    assert isinstance(res, EvalResult)
    assert 1 <= res.terms_used <= 100


def _talbot(factors, nu, k, dps):
    """p_k at t = 1 and rate x = prod(b**e) of ``factors``, by mpmath's
    Talbot inversion of x**k s**(nu-1) / (s**nu + x)**(k+1) at dps
    digits, x formed at dps digits from its factors."""
    with mp.workdps(dps):
        x = mp.fprod(mp.mpf(b) ** e for b, e in factors)
        num = mp.mpf(nu)
        return mp.invertlaplace(
            lambda s: x ** k * s ** (num - 1) / (s ** num + x) ** (k + 1),
            1, method="talbot")


def _fail(*args):
    raise AssertionError("called")


@pytest.mark.parametrize("lam,nu,t,kmax,ks", [
    (3.0, 0.1, 1.0, 30, (0, 2, 30)), (20.0, 0.3, 1.0, 30, (0, 2, 30)),
    (1.0, 0.5, 2000.0, 2, (0, 1, 2)),
])
def test_contour_reaches_laws_past_the_series(lam, nu, t, kmax, ks):
    """Rows whose series would not finish within max_terms come from the
    contour, each entry within its bound of Talbot's inversion and its
    bound within rel_tol of its value plus the rounding to double."""
    rows = pmf_row(ProcessParams(lam, 1.0, nu), t, kmax)
    for k in ks:
        row = rows[k]
        assert row.abs_error_bound <= ((1e-12 * (1 + 1e-9) + 2.0 ** -52)
                                       * row.p + math.ulp(0.0))
        ref = _talbot(((lam, 1.0), (t, nu)), nu, k, 40)
        assert abs(mp.mpf(row.p) - ref) <= row.abs_error_bound


def test_contour_bounds_hold_at_exact_argument(monkeypatch):
    """At rel_tol = 1e-20 the bounds lie far below the rounding of 5**0.7
    to a double: the routed row must be summed at the exact argument."""
    factors, cfg = ((5.0, 0.7), (1.0, 0.3)), SeriesConfig(rel_tol=1e-20)
    monkeypatch.setattr(mp, "rgamma", _fail)
    monkeypatch.setattr(mp, "gamma", _fail)
    assert len(wright_psi11_weighted_rows(30, factors, 0.3, cfg)) == 31
    monkeypatch.undo()
    x = special_fn._argument_double(factors)
    vals, bounds, _ = special_fn._contour_rows(30, factors, x, 0.3, cfg)
    with mp.workdps(60):
        for k in (0, 1, 15, 30):
            assert bounds[k] <= 1e-20 * abs(vals[k])
            assert abs(vals[k] - _talbot(factors, 0.3, k, 60)) <= bounds[k]


def test_contour_sizes_tight_tolerances():
    """At rel_tol = 1e-40 the rule's sums cancel e**mu ~ 1e10 of the largest
    entries, past what a double estimate resolves; the row must still be
    sized and certified, here where the series cannot run at all."""
    factors, cfg = ((20.0, 1.0), (1.0, 0.3)), SeriesConfig(rel_tol=1e-40)
    vals, bounds, _ = special_fn._contour_rows(5, factors, 20.0, 0.3, cfg)
    with mp.workdps(60):
        for k in (0, 5):
            assert bounds[k] <= 1e-40 * abs(vals[k])
            assert abs(vals[k] - _talbot(factors, 0.3, k, 60)) <= bounds[k]


def test_router_sends_costly_series_to_the_contour(monkeypatch):
    """The (5, 1, .3) row, whose series costs thousands of gamma calls at
    217 digits, is summed on the contour: no gamma function at all."""
    monkeypatch.setattr(mp, "rgamma", _fail)
    monkeypatch.setattr(mp, "gamma", _fail)
    rows = pmf_row(ProcessParams(5.0, 1.0, 0.3), 1.0, 30)
    assert all(r.abs_error_bound <= 1e-12 * r.p + 2e-16 * r.p for r in rows)


def test_contour_raises_beyond_its_node_budget(monkeypatch):
    """max_terms below the first node count raises before any sizing."""
    for name in ("_contour_error", "_contour_estimate", "_contour_sum"):
        monkeypatch.setattr(special_fn, name, _fail)
    with pytest.raises(NonConvergence, match="more than 20 nodes"):
        special_fn._contour_rows(30, ((5.0, 1.0), (1.0, 0.3)), 5.0, 0.3,
                                 SeriesConfig(max_terms=20))


def test_contour_refuses_a_row_that_misses_rel_tol(monkeypatch, capsys):
    """The contour's last check: a row whose summed bound misses rel_tol,
    here the true bound raised by 50 nats, is refused, and the CLI exits 2
    with no table."""
    real = special_fn._contour_sum

    def loose(*args):
        vals, lbound = real(*args)
        return vals, lbound + 50.0

    monkeypatch.setattr(special_fn, "_contour_sum", loose)
    with pytest.raises(NonConvergence, match="missed rel_tol"):
        pmf_row(ProcessParams(1.0, 1.0, 0.5), 1.0, 5)
    assert cli.main(["pmf", "--lambda", "1", "--nu", "0.5", "--t", "1",
                     "--kmax", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "missed rel_tol" in captured.err


@pytest.mark.parametrize("lam,nu,kmax", [
    (0.01, 0.2, 100), (0.01, 0.5, 100),
    *((lam, nu, 30) for lam in (0.1, 1.0, 5.0) for nu in (0.3, 0.5, 0.7))])
def test_engines_agree(lam, nu, kmax):
    """The row and the direct series, two independent engines, agree at
    k = 0, 1, kmax/2 and kmax within the sum of their bounds."""
    params = ProcessParams(lam, 1.0, nu)
    rows = wright_psi11_weighted_rows(kmax, ((lam, 1.0), (1.0, nu)), nu)
    for k in (0, 1, kmax // 2, kmax):
        direct = dist.pmf_time_fractional_direct(params, 1.0, k)
        with mp.workdps(60):
            assert (abs(mp.mpf(rows[k].value) - mp.mpf(direct.p))
                    <= rows[k].abs_error_bound + direct.abs_error_bound)


@pytest.mark.parametrize("nu", [0.5, 0.2])
def test_contour_serves_deep_entries_of_small_rates(nu):
    """From k = 19 on k! is not a double, and its rounding (7e-16 at
    k = 95) would exceed the bound of an entry.  The contour gives these
    entries with no factorial: each lies within its bound of the direct
    sum sum_{n>=k} (-1)**(n-k) C(n, k) x**n / Gamma(nu*n + 1) at 60
    digits, whose terms fall by 0.15 or more from n = k on."""
    rows = pmf_row(ProcessParams(0.01, 1.0, nu), 1.0, 100)
    with mp.workdps(60):
        x, num = mp.mpf(0.01), mp.mpf(nu)
        for k in (80, 95, 100):
            ref = mp.fsum((-1) ** (n - k) * mp.binomial(n, k) * x ** n
                          * mp.rgamma(num * n + 1)
                          for n in range(k, k + 150))
            assert abs(mp.mpf(rows[k].p) - ref) <= rows[k].abs_error_bound


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.9])
def test_contour_serves_a_subnormal_rate(monkeypatch, nu):
    """At x = 5e-324 the quotient x / (a + x) underflows to 0: the contour
    forms its log as log(x) - log(a + x) and serves E_nu(-x) = 1."""
    monkeypatch.setattr(special_fn, "_sum_series", _fail)
    res = mittag_leffler(nu, -5e-324)
    assert abs(res.value - 1.0) <= res.abs_error_bound


def test_nodes_share_their_x_free_parts():
    """Two rates at one (nu, n, prec) form s**nu and e**s once, and get the
    nodes of a cold cache."""
    free = special_fn._x_free_nodes
    free.cache_clear()
    warm = [special_fn._contour_nodes(((x, 1.0),), 0.5, 34, 80)
            for x in (1.0, 5.0)]
    assert (free.cache_info().misses, free.cache_info().hits) == (1, 1)
    free.cache_clear()
    assert special_fn._contour_nodes(((5.0, 1.0),), 0.5, 34, 80) == warm[1]


@pytest.mark.parametrize("lam,nu", [(5.0, 0.3), (1.0, 0.7), (0.5, 0.9)])
def test_contour_error_terms_hold(lam, nu):
    """Each error term of the rule bounds what it claims: few nodes at 200
    bits, where the discretisation dominates, and many nodes at 48 bits,
    where the rounding does."""
    factors = ((lam, 1.0), (1.0, nu))
    refs = {k: _talbot(factors, nu, k, 40) for k in (0, 5, 30)}
    for n, prec in ((12, 200), (20, 200), (60, 48)):
        lerr = special_fn._contour_error(lam, nu, 30, n,
                                         *special_fn._rule(n))
        vals, lbound = special_fn._contour_sum(30, factors, nu, n, prec, lerr)
        for k, ref in refs.items():
            assert abs(vals[k] - ref) <= mp.exp(lbound[k])


def test_contour_sum_past_the_double_range():
    """Past 1074 bits 2**-prec underflows in doubles: at 1104 bits the rule
    still returns finite bounds, and its values lie within the summed
    bounds of the 1072-bit rule."""
    factors, lerr = ((1.0, 1.0),), np.full(3, -40.0)
    lo, llo = special_fn._contour_sum(2, factors, 0.5, 33, 1072, lerr)
    hi, lhi = special_fn._contour_sum(2, factors, 0.5, 33, 1104, lerr)
    assert np.all(np.isfinite(lhi))
    for a, b, la, lb in zip(lo, hi, llo, lhi):
        assert abs(a - b) <= mp.exp(la) + mp.exp(lb)


@pytest.mark.parametrize("nu", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("x", [1e-3, 1.0, 1e3])
def test_contour_nodes_hold_their_eps(nu, x):
    """Each c_j and r_j lies within the per-node eps of the old formulas
    evaluated on mpc at twice the precision, also at 2000 nodes, where
    e**s_j comes from 2000 products of the recurrence."""
    factors = ((x, 1.0),)
    for n, prec in ((34, 76), (2000, 76), (60, 48)):
        cs, rs, eps_units = special_fn._contour_nodes(factors, nu, n, prec)
        eps = eps_units * 2.0 ** -prec
        mu, h = special_fn._rule(n)
        with mp.workprec(2 * prec):
            xm = special_fn._argument(factors)
            for j in sorted({*range(0, n + 1, max(1, n // 40)), n}):
                w = mp.mpc(1, j * mp.mpf(h))
                s = mp.mpf(mu) * w * w
                sn = s ** mp.mpf(nu)
                c = 2j * mp.exp(s) * sn / (w * (sn + xm)) / (2 if j == 0
                                                            else 1)
                for (a, b, e), ref in ((cs[j], c), (rs[j], xm / (sn + xm))):
                    got = mp.mpc(mp.ldexp(a, e), mp.ldexp(b, e))
                    assert abs(got - ref) <= eps * abs(ref)


@pytest.mark.parametrize("nu,most", [(0.95, 100), (0.99, 200)])
def test_contour_serves_orders_near_one(nu, most):
    """Near nu = 1 the row at x = 1000 comes from the contour within a few
    hundred nodes (its estimate keeps mu fixed past 33 nodes), each checked
    entry within its bound of Talbot's inversion."""
    factors = ((1000.0, 1.0), (1.0, nu))
    rows = wright_psi11_weighted_rows(30, factors, nu)
    assert rows[0].terms_used <= most
    for k in (0, 1, 15, 30):
        with mp.workdps(40):
            ref = _talbot(factors, nu, k, 40)
            assert abs(mp.mpf(rows[k].value) - ref) <= rows[k].abs_error_bound


@pytest.mark.parametrize("nu", [0.8, 0.85])
def test_long_rows_near_one_return(nu):
    rows = pmf_row(ProcessParams(1000.0, 1.0, nu), 1.0, 100)
    assert len(rows) == 101
    assert all(r.abs_error_bound <= 2e-12 * r.p for r in rows)


@pytest.mark.parametrize("params,kmax,most", [
    (ProcessParams(1.0, 0.5, 0.5), 300, 100),
    (ProcessParams(1.0, 1.0, 1 - 1e-6), 177, 40),
    (ProcessParams(1.0, 1.0, 0.3), 591, 40)])
def test_contour_ladder_refuses_rows_it_cannot_size(params, kmax, most):
    """With a small node budget at x = 1, no rung of the ladder resolves
    the deep entries of these rows, whose ceiling stays above ulp(0): the
    ladder refuses each row, within 2 s."""
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match="cannot size p_"):
        pmf_row(params, 1.0, kmax, SeriesConfig(max_terms=most))
    assert time.perf_counter() - start < 2.0


def test_contour_small_budget_starts_below_33_nodes():
    """At rel_tol 1e-3 the first n is 13: the ladder's first rung starts
    from that rule, not from 33 nodes, and so sizes this row within 64
    nodes, each entry within rel_tol."""
    rows = pmf_row(ProcessParams(0.5, 1.0, 0.9), 1.0, 30,
                   SeriesConfig(rel_tol=1e-3, max_terms=64))
    assert len(rows) == 31
    assert all(r.abs_error_bound <= 1e-3 * r.p for r in rows)


def test_contour_ladder_gives_up():
    """Near nu = 1 at x = 100, no rung of the ladder of mu resolves p_59
    within 200 nodes: the row raises after the sizing rounds."""
    with pytest.raises(NonConvergence,
                       match="cannot size p_59 within 200 nodes"):
        pmf_row(ProcessParams(100.0, 1.0, 0.999), 1.0, 120,
                SeriesConfig(max_terms=200))


def test_series_stops_at_its_term_cap():
    """The direct series of E_.5(-1) peaks at r = 1 but needs more than
    10 terms to meet rel_tol: the engine raises at its cap, naming the
    law."""
    with pytest.raises(NonConvergence,
                       match=r"did not converge within 10 terms "
                             r"\(k=0, nu=0.5, x=1\)"):
        dist.pmf_time_fractional_direct(ProcessParams(1.0, 1.0, 0.5), 1.0, 0,
                                        SeriesConfig(max_terms=10))


def _no_gamma(monkeypatch):
    monkeypatch.setattr(mp, "rgamma", _fail)
    monkeypatch.setattr(mp, "gamma", _fail)


@pytest.mark.parametrize("lam,nu", [(0.01, 0.5), (1.0, 0.5), (5.0, 0.6),
                                    (20.0, 0.95)])
def test_long_rows_need_no_gamma(monkeypatch, lam, nu):
    """K = 100 rows whose deep entries a fixed contour parameter cannot
    size come from the contour, with no gamma function, each bound
    within rel_tol of its entry plus the rounding to double."""
    _no_gamma(monkeypatch)
    for row in pmf_row(ProcessParams(lam, 1.0, nu), 1.0, 100):
        assert row.abs_error_bound <= ((1e-12 * (1 + 1e-9) + 2.0 ** -52)
                                       * row.p + math.ulp(0.0))


@pytest.mark.parametrize("nu", [1 - 1e-6, 1 - 1e-9])
@pytest.mark.parametrize("x", [30.0, 1000.0])
@pytest.mark.parametrize("kmax", [0, 30])
def test_orders_near_one_need_no_gamma(monkeypatch, nu, x, kmax):
    """Near nu = 1 p_0 ~ 1/(x*Gamma(1 - nu)) cancels e**mu in the rule at
    the first contour parameter; a smaller one sizes the row, with no
    gamma function.  Entries 0, 1 and kmax lie within their bounds of
    Talbot's inversion at 60 digits."""
    _no_gamma(monkeypatch)
    rows = wright_psi11_weighted_rows(kmax, ((x, 1.0),), nu)
    monkeypatch.undo()
    for k in sorted({0, min(1, kmax), kmax}):
        ref = _talbot(((x, 1.0),), nu, k, 60)
        with mp.workdps(60):
            assert abs(mp.mpf(rows[k].value) - ref) <= rows[k].abs_error_bound


def _contour_kmax(monkeypatch):
    """The kmax of each ``_contour_rows`` call, at most 400."""
    contour, seen = special_fn._contour_rows, []

    def spy(kmax, *args):
        seen.append(kmax)
        assert kmax <= 400
        return contour(kmax, *args)

    monkeypatch.setattr(special_fn, "_contour_rows", spy)
    return seen


@pytest.mark.parametrize("params,kmax", [((5.0, 0.7, 0.7), 3000),
                                         ((1.0, 0.5, 0.5), 10 ** 4)])
def test_rows_are_cut_at_their_moment_ceiling(monkeypatch, params, kmax):
    """p_k <= x**k / Gamma(nu*k + 1): the contour gives a long row only up
    to where that ceiling passes ulp(0), a few hundred entries."""
    seen = _contour_kmax(monkeypatch)
    rows = pmf_row(ProcessParams(*params), 1.0, kmax)
    assert len(rows) == kmax + 1 and len(seen) == 1


def test_entries_past_the_cut_are_below_ulp0(monkeypatch):
    """The entries of (1, 1, .5) past the cut are 0 with bound ulp(0): the
    first of them lies below ulp(0) by the oracle, in mpf."""
    seen = _contour_kmax(monkeypatch)
    rows = pmf_row(ProcessParams(1.0, 1.0, 0.5), 1.0, 1000)
    cut = seen[0] + 1
    assert all(row.p == 0.0 and row.abs_error_bound == math.ulp(0.0)
               for row in rows[cut:])
    assert 0 < oracle_pmf(ProcessParams(1.0, 1.0, 0.5), 1.0, cut) < \
        math.ulp(0.0)


def test_deep_entries_agree_with_the_direct_series(monkeypatch):
    """Entries 150, 250 and 340 (subnormal) of the (1, 1, .5) row come from
    the contour alone and lie within the sum of their bound and that of
    the direct series."""
    _no_gamma(monkeypatch)
    rows = pmf_row(ProcessParams(1.0, 1.0, 0.5), 1.0, 400)
    monkeypatch.undo()
    for k in (150, 250, 340):
        direct = dist.pmf_time_fractional_direct(ProcessParams(1.0, 1.0, 0.5),
                                                 1.0, k)
        with mp.workdps(60):
            assert (abs(mp.mpf(rows[k].p) - mp.mpf(direct.p))
                    <= rows[k].abs_error_bound + direct.abs_error_bound)
