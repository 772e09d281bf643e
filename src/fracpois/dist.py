"""Closed-form laws of the space-, time- and space-time fractional
Poisson processes: PMF, PGF, CDF and first-passage distributions.

Every PGF is G(u, t) = E_nu(-lam**alpha * t**nu * (1-u)**alpha) = Q(S(u)),
with Q the PGF of the time-fractional law (alpha = 1) at rate lam**alpha
and S(u) = 1 - (1-u)**alpha the PGF of the Sibuya law, whose masses are
all positive (Steutel & van Harn, Ann. Probab. 7, 1979; Devroye, Stat.
Probab. Lett. 18, 1993).  So a PMF row is the alpha = 1 row q (Poisson at
nu = 1, else the certified series of :mod:`fracpois.special_fn`) and, at
alpha < 1, p_k = sum_{m<=k} q_m * [u**k] S(u)**m: a positive sum, nothing
cancels.  The Sibuya powers [u**n] S(u)**m follow one positive first-order
recurrence in n, so a row of K masses costs O(K**2), and the survival
Pr{N(t) > k} = ``first_passage_cdf(params, t, k + 1)`` carries its bound
for any alpha at nu = 1.  Elsewhere closed forms (exp / Poisson / Erlang)
are used where they exist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .special_fn import (_EPS, DEFAULT_CONFIG, EvalResult, NonConvergence,
                         SeriesConfig, _exp_error_bound, _lgamma,
                         _scan_profile, _sum_series, _to_double,
                         mittag_leffler, wright_psi11_weighted_rows)

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


def _series_argument(params: ProcessParams, t: float) -> tuple[float, float]:
    """w = -lam**alpha * t**nu in doubles, and rho >= |log(w/exact)|.

    Each power is within one ulp unless it is exact (exponent 1 or base 1),
    and the product is within half an ulp unless a factor is 1.  rho
    counts eps for each inexact step and one eps more, which covers the
    second order and the rounding of the bounds rho widens; it is 0 where
    w is exact.
    """
    a, b = params.lam ** params.alpha, t ** params.nu
    steps = ((params.alpha != 1.0 and params.lam != 1.0)
             + (params.nu != 1.0 and t != 1.0) + (a != 1.0 and b != 1.0))
    return -(a * b), (steps + 1) * _EPS if steps else 0.0


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


def _argument_widened(rows: list[PmfRow], rho: float, x: float, nu: float,
                      beyond: float) -> list[PmfRow]:
    """Time-fractional masses q_k, k = K0..K, computed at x*e**s, |s| <= rho,
    with their bounds widened to hold at x = lam * t**nu.

    ``beyond`` bounds Pr{N >= K+1}.  With f_j(s) = q_j(x*e**s) and
    S_j = Pr{N >= j}, x dq_k/dx = k q_k - (k+1) q_{k+1} gives
    f_k' = k f_k - (k+1) f_{k+1}, so q_k moves by rho * (k q_k +
    (k+1) q_{k+1}) to first order, each q taken as its row's |p| + bound.
    Past the last row, q_{K+1} <= beyond and q_{K+1} <= x**(K+1) /
    Gamma((K+1)*nu + 1), the first term of its series (q_j = E[exp(-x*Y)
    (x*Y)**j] / j! with E[Y**j] = j! / Gamma(j*nu + 1), Y of the
    Mittag-Leffler law); the factor 2 covers the rounding of that estimate.
    f_k'' = k**2 f_k - (k+1)(2k+1) f_{k+1} + (k+1)(k+2) f_{k+2} is at most
    2(k+1)**2 S_k in size, and S_k, which grows with x at rate k q_k,
    stays within S_k(x)/(1 - rho*k) over the interval: with rho*k <= 1/2
    the second order adds at most 2 (rho*(k+1))**2 S_k, S_k taken as the
    sum of the rows from k on plus ``beyond``.
    """
    j = rows[-1].k + 1
    lead = j * math.log(x) - math.lgamma(j * nu + 1.0) if x > 0 else -math.inf
    q = np.array([abs(r.p) + r.abs_error_bound for r in rows]
                 + [min(beyond, 2.0 * math.exp(min(lead, 0.0)))])
    survival = np.minimum(1.0, beyond + np.cumsum(q[-2::-1])[::-1])
    k = np.arange(rows[0].k, j + 1.0)
    kq = k * q
    widen = rho * (kq[:-1] + kq[1:]) + 2 * (rho * k[1:]) ** 2 * survival
    return [PmfRow(r.k, r.p, r.abs_error_bound + float(d))
            for r, d in zip(rows, widen)]


def _poisson_row(mu: float, k: int) -> PmfRow:
    """Poisson(mu) mass at k, bounded through the condition sum of its log."""
    if mu == 0.0:
        return PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
    lg = math.lgamma(k + 1)
    p = math.exp(-mu + k * math.log(mu) - lg)
    return PmfRow(k, p, _exp_error_bound(p, mu + k * abs(math.log(mu)) + lg))


def pmf_row(params: ProcessParams, t: float, kmax: int,
            cfg: SeriesConfig | None = None) -> list[PmfRow]:
    """PMF values for k = 0..kmax at time t, each with an error bound.

    At nu < 1 the bounds of q also count the rounding of the series
    argument (``_argument_widened``).

    At alpha < 1 the alpha = 1 row q is composed with the Sibuya law,
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
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0:
        return [PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
                for k in range(kmax + 1)]
    w, rho = _series_argument(params, t)
    if params.nu == 1.0:
        q = [_poisson_row(-w, m) for m in range(kmax + 1)]
    else:
        q = [PmfRow(m, r.value, r.abs_error_bound) for m, r in enumerate(
            wright_psi11_weighted_rows(kmax, w, params.nu, cfg))]
        if rho:
            s = _row_sum(q)
            q = _argument_widened(q, rho, -w, params.nu, 1.0 - s.value
                                  + s.abs_error_bound + _EPS)
    alpha = params.alpha
    if alpha == 1.0:
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
    """Probability of exactly k events by time t.

    The raw series value is reported as-is (not clamped to [0,1]) so
    cancellation failures stay visible in diagnostics.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_time(t)
    cfg = cfg or DEFAULT_CONFIG
    if k == 0 and t > 0 and params.nu != 1.0:
        res = mittag_leffler(params.nu, _series_argument(params, t)[0], cfg)
        return PmfRow(0, res.value, res.abs_error_bound)
    return pmf_row(params, t, k, cfg)[k]


def pmf_time_fractional_direct(params: ProcessParams, t: float, k: int,
                               cfg: SeriesConfig | None = None) -> PmfRow:
    """Time-fractional PMF by its own series, an independent path at alpha=1.

    Pr{N_nu(t)=k} = sum_r x**k*(r+k)!/(r!*k!) * (-x)**r / Gamma(nu*(k+r)+1),
    x = lam*t**nu: the (r+k)!/r! recurrence and its own term profile, summed
    by the same certified engine as the kernel series
    (``special_fn._sum_series``).  Used to cross-validate ``pmf`` for the
    alpha = 1 reduction.  The log term magnitudes are concave in r (the
    ratio of successive terms falls), so the profile is scanned in
    doubling blocks (``special_fn._scan_profile``) up to
    r = min(max_terms, 50_000), stopping once past the peak and
    _PRESCAN_DROP nats below both the peak and 1.  The bound also counts
    the rounding of x (``_argument_widened``).
    """
    if params.alpha != 1.0:
        raise ValueError("direct time-fractional form requires alpha = 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_time(t)
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0:
        return PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
    nu = params.nu
    if nu == 1.0:
        return _poisson_row(params.lam * t, k)
    w, rho = _series_argument(params, t)
    x = -w
    logx, lgk = math.log(x), math.lgamma(k + 1)

    def block(r):
        return (_lgamma(r + k + 1) - _lgamma(r + 1) - lgk + (r + k) * logx
                - _lgamma(nu * (k + r) + 1.0))[:, None]

    profile, peaks = _scan_profile(block, 1, min(cfg.max_terms, 50_000), 0)

    def bases():
        # gamma arguments must be built in working precision: forming
        # nu*(k+r) in doubles feeds incoherent argument noise into a
        # heavily cancelling sum.  rise takes three roundings a step, so
        # base r is within the engine's allowance of 3r + 5 roundings
        xm, nu_mp = mp.mpf(-x), mp.mpf(nu)
        rise = mp.mpf(x) ** k      # x**k * (r+k)!/(r!*k!), multiplicatively
        for r in itertools.count():
            yield rise * mp.rgamma(nu_mp * (k + r) + 1)
            rise = rise * xm * (r + k + 1) / (r + 1)

    vals, bounds, terms = _sum_series(bases, peaks, profile, cfg)
    res = _to_double(vals[0], bounds[0], terms)
    row = PmfRow(k, res.value, res.abs_error_bound)
    return _argument_widened([row], rho, x, nu, 1.0)[0] if rho else row


def pgf(params: ProcessParams, t: float, u: float,
        cfg: SeriesConfig | None = None) -> EvalResult:
    """Probability generating function E[u**N(t)] for |u| <= 1.

    Equals E_nu(-lam**alpha * (1-u)**alpha * t**nu); at nu = 1 it is the
    discrete-stable exponential exp(-lam**alpha * t * (1-u)**alpha).
    """
    if not abs(u) <= 1:
        raise ValueError("u must satisfy |u| <= 1")
    _check_time(t)
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0 or u == 1.0:
        return EvalResult(1.0, 0.0, 0)
    arg = -(params.lam ** params.alpha) * (1.0 - u) ** params.alpha \
        * t ** params.nu
    if params.nu == 1.0:
        v = math.exp(arg)
        return EvalResult(v, _exp_error_bound(v, abs(arg)), 0)
    return mittag_leffler(params.nu, arg, cfg)


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


def _erlang_cdf(mu: float, k: int, cfg: SeriesConfig) -> EvalResult:
    """Pr{Poisson(mu) >= k} for k >= 1: the Erlang(k) distribution function.

    Summed in mpmath outward from k, so that nothing cancels: upward,
    p_k + p_{k+1} + ..., when k >= mu, else as the complement of
    p_{k-1} + p_{k-2} + ... + p_0.  The ratios of successive terms,
    mu/(j+1) upward and j/mu downward, are below 1 and shrink, so after a
    term t of ratio q the remainder is at most t*q/(1-q); the sum stops
    once that is below 2**-prec of the sum.

    The first term is exp(j*log(mu) - mu - log(j!)), whose argument has the
    condition sum c = mu + k*|log mu| + log(k!); the working precision
    keeps 30 digits beyond c, so the term is within (8c + 4) roundings of
    its value.  Each further term adds two roundings and each addition
    one, so with n terms the sum errs by at most (8c + 3n + 6) * 2**-prec
    of itself; the remainder adds one more, the subtraction from 1 one
    ulp of 1.  The bound adds the rounding to double and the underflow of
    a result below the smallest subnormal.  A mean that underflows to 0
    gives 0, within ulp(0) since Pr{N >= k} <= mu.
    """
    if mu == 0.0:
        return EvalResult(0.0, math.ulp(0.0), 0)
    cond = mu + k * abs(math.log(mu)) + math.lgamma(k + 1)
    up = k >= mu
    with mp.workdps(30 + int(math.log10(cond + 1))):
        ulp = mp.mpf(2) ** -mp.mp.prec
        m = mp.mpf(mu)
        j = k if up else k - 1
        term = mp.exp(j * mp.log(m) - m - mp.loggamma(j + 1))
        total, n = mp.mpf(0), 0
        while True:
            total += term
            n += 1
            if not up and j == 0:
                break
            q = m / (j + 1) if up else j / m
            if term * q <= ulp * total * (1 - q):
                break
            if n >= cfg.max_terms:
                raise NonConvergence(
                    f"Erlang distribution function needs more than "
                    f"{cfg.max_terms} Poisson terms (k={k}, mu={mu:.6g})")
            term *= q
            j += 1 if up else -1
        err = ((8 * cond + 3 * n + 7) * total + 1) * ulp
        v = float(total if up else 1 - total)
        return EvalResult(v, float(err) + _EPS * v + math.ulp(0.0), n)


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
    they are the Erlang distribution function (``_erlang_cdf``) and
    density, lam times the Poisson(lam*t) mass at k-1.  The density is None
    where it is not defined: k = 0 or t = 0.  With k + 1 for k, the
    distribution function is the survival Pr{N(t) > k}, bounded for any
    alpha; its row costs O(k**2) (about a second at k = 10**4).
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
        mu = lam * t
        row = _poisson_row(mu, k - 1)
        return _erlang_cdf(mu, k, cfg or DEFAULT_CONFIG), \
            EvalResult(lam * row.p, lam * row.abs_error_bound + math.ulp(0.0),
                       0)

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
