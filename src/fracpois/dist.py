"""Closed-form laws of the space-, time- and space-time fractional
Poisson processes: PMF, PGF, CDF and first-passage distributions.

Every PGF is G(u, t) = E_nu(-lam**alpha * t**nu * (1-u)**alpha) = Q(S(u)),
with Q the PGF of the time-fractional law (alpha = 1) at rate lam**alpha
and S(u) = 1 - (1-u)**alpha the PGF of the Sibuya law, whose masses are
all positive (Steutel & van Harn, Ann. Probab. 7, 1979; Devroye, Stat.
Probab. Lett. 18, 1993).  So a PMF row is the alpha = 1 row q of
:mod:`fracpois.special_fn` (Poisson at nu = 1, else its contour), which
alone decides the order and the zero argument, and, at alpha < 1,
p_k = sum_{m<=k} q_m * [u**k] S(u)**m: a positive sum, nothing cancels.
The Sibuya powers [u**n] S(u)**m follow one positive first-order
recurrence in n, so a row of K masses costs O(K**2), and the survival
Pr{N(t) > k} = ``first_passage_cdf(params, t, k + 1)`` carries its bound
for any alpha at nu = 1.  At alpha = 1 the first passage is Erlang: a
Poisson upper tail, which ``special_fn._sum_series`` sums, and a mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .special_fn import (_EPS, DEFAULT_CONFIG, EvalResult, NonConvergence,
                         SeriesConfig, _argument, _argument_double, _lgamma,
                         _poisson_mass, _scan_profile, _sum_series,
                         _to_double, wright_psi11_weighted_rows)

__all__ = [
    "ProcessParams", "PmfRow", "pmf", "pmf_row", "pmf_time_fractional_direct",
    "pgf", "pgf_partial_sum", "cdf", "first_passage", "first_passage_cdf",
    "first_passage_density", "NonConvergence",
]


@dataclass(frozen=True)
class ProcessParams:
    """Finite rate lam > 0, space order alpha and time order nu in (0, 1]."""

    lam: float
    alpha: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be finite and > 0")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 < self.nu <= 1:
            raise ValueError("nu must lie in (0, 1]")


@dataclass(frozen=True)
class PmfRow:
    k: int
    p: float
    abs_error_bound: float


def _check_time(t: float, strict: bool = False) -> None:
    """The one time check: every law is defined for t > 0, and t = 0 is its
    initial condition, which a ``strict`` caller does not take."""
    if not 0 <= t < math.inf or (strict and t == 0):
        raise ValueError(f"t must be finite and {'>' if strict else '>='} 0")


def _series_argument(params: ProcessParams, t: float):
    """The exact factors ((lam, alpha), (t, nu)) of the rate
    x = lam**alpha * t**nu, which the row and the direct series form in
    their working precision, and x in doubles
    (``special_fn._argument_double``), a ValueError where it overflows."""
    factors = ((params.lam, params.alpha), (t, params.nu))
    return factors, _argument_double(factors)


def _row_sum(rows: list[PmfRow], weights=1.0, rel=0.0) -> EvalResult:
    """sum_j w_j * p_j in row order, w_j >= 0 within rel_j * w_j of exact
    (both may be scalars), with the bound sum_j w_j*(e_j + rel_j*(|p_j| +
    e_j)) for the rows' bounds e_j plus g * sum_j w_j*|p_j| for the rounding
    of the products and the sum (Higham 2002, sec. 3.1), over 1 - g; g =
    gamma_{n+12} also covers the bound's n + 8 roundings and one scaling by
    the caller.  3n * ulp(0) covers underflow."""
    p, e = np.array([(r.p, r.abs_error_bound) for r in rows]).T
    wp, we = np.multiply(weights, p), np.multiply(weights, e)
    g = (p.size + 12) * _EPS / (2 - (p.size + 12) * _EPS)
    err = np.sum(we + np.multiply(rel, np.abs(wp) + we)) + g * np.abs(wp).sum()
    # cumsum adds in row order; np.sum adds pairwise
    return EvalResult(float(np.cumsum(wp)[-1]), float(err / (1 - g))
                      + 3 * p.size * math.ulp(0.0), p.size)


def pmf_row(params: ProcessParams, t: float, kmax: int,
            cfg: SeriesConfig | None = None) -> list[PmfRow]:
    """PMF values for k = 0..kmax at time t, each with an error bound.

    The alpha = 1 row q (``special_fn.wright_psi11_weighted_rows``:
    Poisson at nu = 1, else its contour, 0 with bound ulp(0) past its
    moment ceiling) takes the exact factors of its argument
    lam**alpha * t**nu and forms it in its own working precision, so the
    bounds of q hold at the exact argument.  At t = 0 q is the exact
    point mass at 0, and so is the law for every alpha.

    At alpha < 1 and t > 0 the row q is composed with the Sibuya law,
    p_n = sum_m q_m * c_n[m] with c_n[m] = [u**n] S(u)**m.  The columns c_n
    follow from (1-u) * (S**m)' = alpha*m * (S**(m-1) - S**m):

        c_{n+1}[m] = ((n-m + (1-alpha)*m) * c_n[m]
                      + alpha*m * c_n[m-1]) / (n+1),   m <= n,

    and c_{n+1}[n+1] = alpha * c_n[n], starting from c_0 = [1, 0, ...];
    each column costs O(n), so the row costs O(kmax**2).  c_n[m] = 0 for
    m > n and n - alpha*m >= (1-alpha)*m > 0 otherwise, so every factor is
    positive.  p_0 = q_0 with q_0's bound (c_0 is exact).  A negative q_m
    is raised to 0, towards the true mass, so its bound still holds; then
    nothing cancels and the error of p_k (k >= 1) has three parts:

    * the bounds e of q, carried as b_k = sum_m e_m * c_k[m];
    * rounding: n-m is exact; 1-alpha, its product with m, the sum, the
      product with c_n[m], the addition and the division take six
      roundings a column (alpha*m and its product take two, on the other
      branch), so c_k is within 6k roundings of its exact value, and the
      k products and k-1 additions of p_k add k; with five more for
      forming the bound, theta = (7k + 5) * 2**-53 and g = theta/(1-theta)
      give |p_k - exact| <= (b_k + g*p_k) / (1-g);
    * underflow: a product or a division may also lose ulp(0)/2
      outright (sums lose nothing).  Forming an entry of column n+1 loses
      at most (2/(n+1) + 1) * ulp(0)/2 <= ulp(0), and the map from column
      n to n+1 has row sums n/(n+1) < 1, so it never amplifies what the
      earlier columns lost: c_k is off by at most (k-1) * ulp(0).  The
      weights q sum to at most 1 and the k products of the dot product
      lose k * ulp(0)/2, so p_k and b_k each lose under 1.5k * ulp(0).
      The bound adds (7k + 2) * ulp(0), one per rounding counted above
      and two for forming the bound, which covers both.
    """
    _check_time(t)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    q = [PmfRow(m, r.value, r.abs_error_bound) for m, r in enumerate(
        wright_psi11_weighted_rows(kmax, _series_argument(params, t)[0],
                                   params.nu, cfg))]
    alpha = params.alpha
    if alpha == 1.0 or t == 0.0:
        return q
    qb = np.array([[max(row.p, 0.0), row.abs_error_bound] for row in q]).T
    m = np.arange(kmax + 1.0)
    am, bm = alpha * m, (1.0 - alpha) * m
    c = np.zeros(kmax + 1)
    c[0] = 1.0
    pb = np.empty((2, kmax))        # p_k and b_k, k = 1..kmax
    for n in range(kmax):
        c[n + 1] = alpha * c[n]
        c[1:n + 1] = ((n - m[1:n + 1] + bm[1:n + 1]) * c[1:n + 1]
                      + am[1:n + 1] * c[:n]) / (n + 1)
        c[0] = 0.0      # [u**n] S**0 = 0 for n >= 1
        pb[:, n] = qb[:, 1:n + 2] @ c[1:n + 2]
    p, b = pb
    k = m[1:]
    theta = (7 * k + 5) * (_EPS / 2)    # roundings * unit roundoff
    g = theta / (1 - theta)
    bound = (b + g * p) / (1 - g) + (7 * k + 2) * math.ulp(0.0)
    return [q[0]] + [PmfRow(j, float(v), float(e)) for j, v, e in
                     zip(range(1, kmax + 1), p, bound)]


def pmf(params: ProcessParams, t: float, k: int,
        cfg: SeriesConfig | None = None) -> PmfRow:
    """Probability of exactly k events by time t: entry k of ``pmf_row``.

    That is the row's Poisson mass at nu = 1 and its contour at nu < 1,
    composed with the Sibuya law at alpha < 1 (where a negative q_m is
    raised to 0).  The value is not clamped to [0, 1].  Entry k of a
    longer row, ``pmf_row(params, t, K)[k]`` with K > k, may differ from
    it in its last digits: the contour's node count depends on every
    entry of the row.  Both lie within their bounds, so they agree within
    the sum of the two.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return pmf_row(params, t, k, cfg)[k]


def pmf_time_fractional_direct(params: ProcessParams, t: float, k: int,
                               cfg: SeriesConfig | None = None) -> PmfRow:
    """Time-fractional PMF by its own series, an independent path at alpha=1.

    Pr{N_nu(t)=k} = sum_r x**k*(r+k)!/(r!*k!) * (-x)**r / Gamma(nu*(k+r)+1),
    x = lam*t**nu.  At nu = 1 and where x = 0 in doubles it is ``pmf``,
    whose row decides both.  Else the (r+k)!/r! recurrence is summed
    exactly in integers with a certified bound
    (``special_fn._sum_series``), sharing no code with the contour of
    ``pmf``, which it cross-validates at alpha = 1.  The log term
    magnitudes are concave in r (the ratio of successive terms falls), so
    their peak is found by a scan in doubling blocks
    (``special_fn._scan_profile``) up to r = min(max_terms, 50_000), which
    stops once the terms fall by the stop ratio.  The scan takes x in
    doubles; the bases take x from its exact factors, formed in the
    working precision (``special_fn._argument``), so the bound holds at
    the exact x.

    An independent checker whose cost grows with x: at (8, 1, .3), t = 1,
    the peak term e**1020 at r = 3412 sets 482 digits, and 9363 terms with
    an ``mp.rgamma`` each take 8.8-19 s on 2 shared CPUs (``pmf``: 8-13 ms).
    """
    if params.alpha != 1.0:
        raise ValueError("direct time-fractional form requires alpha = 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_time(t)
    nu = params.nu
    factors, x = _series_argument(params, t)
    if nu == 1.0 or x == 0.0:
        return pmf(params, t, k, cfg)
    cfg = cfg or DEFAULT_CONFIG
    logx, lgk = math.log(x), math.lgamma(k + 1)

    def block(r):
        return (_lgamma(r + k + 1) - _lgamma(r + 1) - lgk + (r + k) * logx
                - _lgamma(nu * (k + r) + 1.0))

    rpeak, lpeak = _scan_profile(block, min(cfg.max_terms, 50_000), 0)

    def bases():
        # gamma arguments must be built in working precision: forming
        # nu*(k+r) in doubles feeds incoherent argument noise into a
        # heavily cancelling sum.  rise takes three roundings a step, so
        # base r is within the engine's allowance of 3r + 5 roundings;
        # the error of xm (under 2**-61 relatively) adds (k + r) * 2**-61,
        # within the two roundings spare for any k < 2**60
        xm, nu_mp = _argument(factors), mp.mpf(nu)
        rise = xm ** k  # x**k * (r+k)!/(r!*k!) * (-x)**r at step r
        for r in itertools.count():
            yield rise * mp.rgamma(nu_mp * (k + r) + 1)
            rise = -rise * xm * (r + k + 1) / (r + 1)

    res = _to_double(*_sum_series(bases, rpeak, lpeak, cfg,
                                  f"(k={k}, nu={nu}, x={x:.6g})"))
    return PmfRow(k, res.value, res.abs_error_bound)


def pgf(params: ProcessParams, t: float, u: float,
        cfg: SeriesConfig | None = None) -> EvalResult:
    """Probability generating function E[u**N(t)] for |u| <= 1.

    Equals E_nu(-lam**alpha * (1-u)**alpha * t**nu), p_0 of the
    time-fractional row (``special_fn.wright_psi11_weighted_rows``), which
    takes the three factors exactly, so its bound holds at the exact
    argument.  At nu = 1 that is the discrete-stable exponential
    exp(-lam**alpha * t * (1-u)**alpha); a zero factor (t = 0 or u = 1)
    gives 1 exactly.
    """
    if not abs(u) <= 1:
        raise ValueError("u must satisfy |u| <= 1")
    _check_time(t)
    factors = ((params.lam, params.alpha), (1.0 - u, params.alpha),
               (t, params.nu))
    return wright_psi11_weighted_rows(0, factors, params.nu, cfg)[0]


def pgf_partial_sum(params: ProcessParams, t: float, u: float, kmax: int,
                    cfg: SeriesConfig | None = None) -> EvalResult:
    """sum_{k<=kmax} p_k(t) * u**k with a certified error bound.

    A row sum (``_row_sum``) with weights u**k, each within one ulp; past
    the kcut where the weights sum below cfg.rel_tol, p_k <= 1 bounds them.
    """
    if not 0 <= u < 1:
        raise ValueError("u must lie in [0, 1)")
    cfg = cfg or DEFAULT_CONFIG
    if u == 0.0:
        row = pmf(params, t, 0, cfg)
        return EvalResult(row.p, row.abs_error_bound, 1)
    kcut = min(kmax, max(0, math.ceil(math.log(cfg.rel_tol * (1 - u), u))))
    res = _row_sum(pmf_row(params, t, kcut, cfg),
                   [u ** k for k in range(kcut + 1)], _EPS)
    tail = u ** (kcut + 1) / (1.0 - u) if kcut < kmax else 0.0
    return EvalResult(res.value, res.abs_error_bound + tail, kcut + 1)


def cdf(params: ProcessParams, t: float, k: int,
        cfg: SeriesConfig | None = None) -> EvalResult:
    """Pr{N(t) <= k}: the row sum p_0 + ... + p_k (``_row_sum``)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _row_sum(pmf_row(params, t, k, cfg))


def _erlang_cdf(factors, mu: float, k: int, cfg: SeriesConfig) -> EvalResult:
    """Pr{Poisson(m) >= k}, k >= 1, the Erlang(k) distribution function at
    the mean m of ``factors``, which is mu in doubles.

    ``special_fn._sum_series`` sums the masses outward from k, so nothing
    cancels: p_k + p_{k+1} + ... when k >= mu, else p_{k-1} + ... + p_0
    (then exact zeros), whose complement, formed at 40 digits, adds its
    rounding.  The first mass, exp(j0*log(m) - m - log(j0!)), is the peak
    term; its argument, of condition sum c = mu + j0*|log mu| +
    log(j0!) >= 1, takes log2(c) + 8 guard bits.  Each later mass takes a
    product and a quotient, m/(j+1) up and j/m down, with m 64 bits beyond
    the working precision (``special_fn._argument``): base r is within
    2r + 3 roundings of its value at the exact mean (the engine allows
    3r + 5), where the bound holds, at a tolerance far below double.  A
    mean that underflows to 0 gives 0, within ulp(0): Pr{N >= k} <= m.
    """
    if mu == 0.0:
        return EvalResult(0.0, math.ulp(0.0), 0)
    up = k >= mu
    j0 = k if up else k - 1
    lm, lg = math.log(mu), math.lgamma(j0 + 1)

    def bases():
        m = _argument(factors)
        with mp.workprec(mp.mp.prec + 8
                         + math.ceil(math.log2(mu + j0 * abs(lm) + lg))):
            p = mp.exp(j0 * mp.log(m) - m - mp.loggamma(j0 + 1))
        for j in itertools.count(j0, 1 if up else -1):
            yield +p    # rounds p_j0 to the working precision
            p = p * m / (j + 1) if up else p * j / m

    s, b, n = _sum_series(bases, 0, j0 * lm - mu - lg,
                          SeriesConfig(2.0 ** -80, cfg.max_terms),
                          f"(k={k}, mu={mu:.6g})")
    if not up:
        with mp.workdps(40):
            s = 1 - s
            b += abs(s) * 2 ** -mp.mp.prec
    return _to_double(s, b, n)


def first_passage(params: ProcessParams, t: float, k: int,
                  cfg: SeriesConfig | None = None
                  ) -> tuple[EvalResult, EvalResult | None]:
    """Pr{tau_k < t} and the density of tau_k at t, from one kernel row.

    Defined for the space-fractional process (nu = 1).  The distribution
    function is Pr{N(t) >= k} = 1 - sum_{j<k} p_j(t), with k = 0 giving 1.
    The density is -sum_{j<k} d/dt p_j(t), and d/dt p = -lam**alpha *
    (1-B)**alpha p sums to

        density(t) = lam**alpha * sum_{j<k} p_j(t) * D_{k-1-j},

    where D_n = sum_{i<=n} c_i(alpha) = prod_{i<=n} (1 - alpha/i) is the
    n-th partial sum of the coefficients of (1-B)**alpha
    (``frac_ops.frac_binom_coeffs``).  Every D_n lies in (0, 1], so the sum
    has positive weights and nothing cancels.  Both laws are row sums
    (``_row_sum``) over one ``pmf_row(params, t, k-1)``.  At alpha = 1
    they are Erlang: a Poisson(lam*t) tail, summed by ``_erlang_cdf``, and
    lam times the Poisson(lam*t) mass at k-1.  The density is None where
    it is not defined: k = 0 or t = 0.  With k + 1 for k, the distribution
    function is the survival Pr{N(t) > k}, bounded for any alpha; its row
    costs O(k**2) (about a second at k = 10**4).
    """
    if params.nu != 1.0:
        raise ValueError("first-passage laws require nu = 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_time(t)
    if k == 0:
        return EvalResult(1.0, 0.0, 0), None
    if t == 0.0:
        return EvalResult(0.0, 0.0, 0), None
    lam, alpha = params.lam, params.alpha
    if alpha == 1.0:
        factors, mu = _series_argument(params, t)
        row = _poisson_mass(mu, k - 1)
        return _erlang_cdf(factors, mu, k, cfg or DEFAULT_CONFIG), \
            EvalResult(lam * row.value,
                       lam * row.abs_error_bound + math.ulp(0.0), 0)

    rows = pmf_row(params, t, k - 1, cfg)
    below = _row_sum(rows)
    # D_n = c_0 + ... + c_n = prod_{i<=n} (1 - alpha/i): positive factors,
    # so each D_n is within 3*n*eps of its exact value
    d = np.cumprod(np.r_[1.0, 1.0 - alpha / np.arange(1, k)])[::-1]
    res = _row_sum(rows, d, 3 * _EPS * np.arange(k - 1.0, -1.0, -1.0))
    # 1 - sum rounds once; lam**alpha (within one ulp) and dens twice
    v, dens = 1.0 - below.value, lam ** alpha * res.value
    return (EvalResult(v, below.abs_error_bound + _EPS * abs(v), k),
            EvalResult(dens, lam ** alpha * res.abs_error_bound
                       + 2 * _EPS * dens + math.ulp(0.0), k))


def first_passage_cdf(params: ProcessParams, t: float, k: int,
                      cfg: SeriesConfig | None = None) -> EvalResult:
    """Pr{tau_k < t} = Pr{N(t) >= k} (nu = 1); see ``first_passage``."""
    return first_passage(params, t, k, cfg)[0]


def first_passage_density(params: ProcessParams, t: float, k: int,
                          cfg: SeriesConfig | None = None) -> EvalResult:
    """Density of tau_k at t > 0 for k >= 1 (nu = 1); see ``first_passage``."""
    if k < 1:
        raise ValueError("k must be >= 1 for the density")
    _check_time(t, strict=True)
    return first_passage(params, t, k, cfg)[1]
