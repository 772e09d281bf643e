"""Closed-form laws of the space-, time- and space-time fractional
Poisson processes: PMF, PGF, CDF and first-passage distributions.

The general PMF is

    p_k(t) = ((-1)**k / k!) * sum_r (-lam**alpha * t**nu)**r / Gamma(nu*r+1)
                                   * ffact(alpha*r, k),

which reduces to the classical Poisson law at alpha = nu = 1.  Reductions
at alpha = 1 or nu = 1 are routed to closed forms (exp / Poisson / Erlang)
wherever one exists; everything else goes through the certified series
evaluators in :mod:`fracpois.special_fn`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaln

from .special_fn import (_EPS, DEFAULT_CONFIG, EvalResult, NonConvergence,
                         SeriesConfig, _exp_error_bound, _sum_series,
                         _to_double, mittag_leffler,
                         wright_psi11_weighted_rows)

__all__ = [
    "ProcessParams", "PmfRow", "pmf", "pmf_row", "pmf_time_fractional_direct",
    "pgf", "pgf_partial_sum", "cdf", "first_passage_cdf",
    "first_passage_density", "survival_subordination", "NonConvergence",
]


@dataclass(frozen=True)
class ProcessParams:
    """Rate lam > 0, space order alpha in (0,1], time order nu in (0,1]."""

    lam: float
    alpha: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 < self.nu <= 1:
            raise ValueError("nu must lie in (0, 1]")


@dataclass(frozen=True)
class PmfRow:
    k: int
    p: float
    abs_error_bound: float


def _series_argument(params: ProcessParams, t: float) -> float:
    return -(params.lam ** params.alpha) * t ** params.nu


def _poisson_row(mu: float, k: int) -> PmfRow:
    """Poisson(mu) mass at k, bounded through the condition sum of its log."""
    if mu == 0.0:
        return PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
    lg = math.lgamma(k + 1)
    p = math.exp(-mu + k * math.log(mu) - lg)
    return PmfRow(k, p, _exp_error_bound(p, mu + k * abs(math.log(mu)) + lg))


def pmf_row(params: ProcessParams, t: float, kmax: int,
            cfg: SeriesConfig | None = None) -> list[PmfRow]:
    """PMF values for k = 0..kmax at time t, each with an error bound."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0:
        return [PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
                for k in range(kmax + 1)]
    if params.alpha == 1.0 and params.nu == 1.0:
        return [_poisson_row(params.lam * t, k) for k in range(kmax + 1)]
    rows = wright_psi11_weighted_rows(params.alpha, kmax,
                                      _series_argument(params, t),
                                      params.nu, cfg)
    return [PmfRow(k, r.value, r.abs_error_bound)
            for k, r in enumerate(rows)]


def pmf(params: ProcessParams, t: float, k: int,
        cfg: SeriesConfig | None = None) -> PmfRow:
    """Probability of exactly k events by time t.

    The raw series value is reported as-is (not clamped to [0,1]) so
    cancellation failures stay visible in diagnostics.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0 or (params.alpha == 1.0 and params.nu == 1.0):
        return pmf_row(params, t, k, cfg)[k]
    if k == 0:
        if params.nu == 1.0:
            arg = _series_argument(params, t)
            p0 = math.exp(arg)
            return PmfRow(0, p0, _exp_error_bound(p0, abs(arg)))
        res = mittag_leffler(params.nu, _series_argument(params, t), cfg)
        return PmfRow(0, res.value, res.abs_error_bound)
    return pmf_row(params, t, k, cfg)[k]


def pmf_time_fractional_direct(params: ProcessParams, t: float, k: int,
                               cfg: SeriesConfig | None = None) -> PmfRow:
    """Time-fractional PMF by its own series, an independent path at alpha=1.

    Pr{N_nu(t)=k} = sum_r x**k*(r+k)!/(r!*k!) * (-x)**r / Gamma(nu*(k+r)+1),
    x = lam*t**nu: the (r+k)!/r! recurrence and its own term profile, summed
    by the same certified engine as the kernel series
    (``special_fn._sum_series``).  Used to cross-validate ``pmf`` for the
    alpha = 1 reduction.
    """
    if params.alpha != 1.0:
        raise ValueError("direct time-fractional form requires alpha = 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0:
        return PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
    nu = params.nu
    if nu == 1.0:
        return _poisson_row(params.lam * t, k)
    x = params.lam * t ** nu
    r = np.arange(min(cfg.max_terms, 50_000) + 1, dtype=float)
    profile = (gammaln(r + k + 1) - gammaln(r + 1) - gammaln(k + 1)
               + (r + k) * math.log(x) - gammaln(nu * (k + r) + 1.0))

    def bases():
        # gamma arguments must be built in working precision: forming
        # nu*(k+r) in doubles feeds incoherent argument noise into a
        # heavily cancelling sum
        xm, nu_mp = mp.mpf(-x), mp.mpf(nu)
        rise = mp.mpf(x) ** k      # x**k * (r+k)!/(r!*k!), multiplicatively
        for r in itertools.count():
            yield rise * mp.rgamma(nu_mp * (k + r) + 1)
            rise = rise * xm * (r + k + 1) / (r + 1)

    vals, bounds, terms = _sum_series(bases, None, 0, profile, cfg)
    res = _to_double(vals[0], bounds[0], terms)
    return PmfRow(k, res.value, res.abs_error_bound)


def pgf(params: ProcessParams, t: float, u: float,
        cfg: SeriesConfig | None = None) -> EvalResult:
    """Probability generating function E[u**N(t)] for |u| <= 1.

    Equals E_nu(-lam**alpha * (1-u)**alpha * t**nu); at nu = 1 it is the
    discrete-stable exponential exp(-lam**alpha * t * (1-u)**alpha).
    """
    if abs(u) > 1:
        raise ValueError("u must satisfy |u| <= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
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

    Terms whose geometric weight u**k cannot exceed 1e-12 * (1-u) in
    total are bounded analytically (p_k <= 1) instead of evaluated.
    """
    if not 0 <= u < 1:
        raise ValueError("u must lie in [0, 1)")
    cfg = cfg or DEFAULT_CONFIG
    if u == 0.0:
        row = pmf(params, t, 0, cfg)
        return EvalResult(row.p, row.abs_error_bound, 1)
    kcut = kmax
    if u < 1.0:
        # beyond kstop the remaining weight sums below 1e-12
        kstop = int(math.ceil(math.log(1e-12 * (1.0 - u)) / math.log(u)))
        kcut = min(kmax, max(kstop, 0))
    rows = pmf_row(params, t, kcut, cfg)
    total = 0.0
    bound = 0.0
    for row in rows:
        total += row.p * u ** row.k
        bound += row.abs_error_bound * u ** row.k
    if kcut < kmax:
        bound += u ** (kcut + 1) / (1.0 - u)
    return EvalResult(total, bound, kcut + 1)


def cdf(params: ProcessParams, t: float, k: int,
        cfg: SeriesConfig | None = None) -> EvalResult:
    """Pr{N(t) <= k} as a partial sum of the PMF."""
    if k < 0:
        raise ValueError("k must be >= 0")
    rows = pmf_row(params, t, k, cfg)
    return EvalResult(sum(r.p for r in rows),
                      sum(r.abs_error_bound for r in rows), k + 1)


def first_passage_cdf(params: ProcessParams, t: float, k: int,
                      cfg: SeriesConfig | None = None) -> EvalResult:
    """Pr{tau_k < t} = Pr{N(t) >= k}, in complement form 1 - cdf(k-1).

    Defined for the space-fractional process (nu = 1); k = 0 returns 1.
    """
    if params.nu != 1.0:
        raise ValueError("first-passage laws require nu = 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if k == 0:
        return EvalResult(1.0, 0.0, 0)
    if t == 0.0:
        return EvalResult(0.0, 0.0, 0)
    if params.alpha == 1.0:
        # Erlang reduction: Pr{N(t) >= k} as a regularized incomplete gamma
        v = float(gammainc(k, params.lam * t))
        return EvalResult(v, 5e-16, 0)
    below = cdf(params, t, k - 1, cfg)
    return EvalResult(1.0 - below.value, below.abs_error_bound,
                      below.terms_used)


def first_passage_density(params: ProcessParams, t: float, k: int,
                          cfg: SeriesConfig | None = None) -> EvalResult:
    """Density of tau_k in t (nu = 1), from the governing equation.

    density(t) = -sum_{m<k} d/dt p_m(t), and d/dt p = -lam**alpha *
    (1-B)**alpha p sums to

        density(t) = lam**alpha * sum_{j<k} p_j(t) * D_{k-1-j},

    where D_n = sum_{i<=n} c_i(alpha) = prod_{i<=n} (1 - alpha/i) is the
    n-th partial sum of the coefficients of (1-B)**alpha
    (``frac_ops.frac_binom_coeffs``).  Every D_n lies in (0, 1], so the sum
    has positive weights and nothing cancels: the bound is lam**alpha times
    the D-weighted row bounds plus the rounding of the products and the sum.
    At alpha = 1 this is the Erlang density, returned in closed form.
    """
    if params.nu != 1.0:
        raise ValueError("first-passage laws require nu = 1")
    if k < 1:
        raise ValueError("k must be >= 1 for the density")
    if not t > 0:
        raise ValueError("t must be > 0")
    lam, alpha = params.lam, params.alpha
    if alpha == 1.0:
        mu, lg = lam * t, math.lgamma(k)
        e = math.exp(-mu + (k - 1) * math.log(mu) - lg)
        bound = lam * _exp_error_bound(e, mu + (k - 1) * abs(math.log(mu))
                                      + lg) + math.ulp(0.0)
        return EvalResult(lam * e, bound, 0)

    a = lam ** alpha
    rows = pmf_row(params, t, k - 1, cfg)
    # D_n = c_0 + ... + c_n = prod_{i<=n} (1 - alpha/i): positive factors,
    # so each D_n is within 3*n*eps of its exact value
    d = np.cumprod(np.r_[1.0, 1.0 - alpha / np.arange(1, k)])[::-1]
    p = np.array([row.p for row in rows])
    dens = a * float(d @ p)
    # rounding: D, the products, the sum and lam**alpha
    bound = a * (float(d @ [row.abs_error_bound for row in rows])
                 + (3 * k + 6) * _EPS * float(d @ np.abs(p))) \
        + k * math.ulp(0.0)
    return EvalResult(dens, bound, k)


# ---------------------------------------------------------------------------
# large-k survival via the Poisson-over-stable mixture (nu = 1, alpha < 1)

def _stable_pdf_unit(x: float, alpha: float) -> float:
    """Density of the one-sided alpha-stable law with LT exp(-z**alpha).

    Only the alpha = 1/2 (Levy) case has a closed form accurate enough
    for tail quadrature; other orders are rejected.
    """
    if alpha != 0.5:
        raise ValueError("stable density available in closed form only "
                         "for alpha = 1/2")
    if x <= 0.0:
        return 0.0
    return x ** -1.5 / (2.0 * math.sqrt(math.pi)) * math.exp(-0.25 / x)


def survival_subordination(params: ProcessParams, t: float, k: int) -> float:
    """Pr{N(t) > k} by quadrature against the stable subordinator density.

    Uses the subordinated representation of the space-fractional process:
    the count is Poisson with random mean lam * S_alpha(t).  Well
    conditioned for arbitrarily large k, unlike the alternating series.
    Requires nu = 1 and alpha = 1/2 (the Levy case with a closed-form
    subordinator density).
    """
    if params.nu != 1.0 or params.alpha != 0.5:
        raise ValueError("subordination route requires nu = 1, alpha = 1/2")
    if k < 0:
        raise ValueError("k must be >= 0")
    lam, alpha = params.lam, params.alpha
    scale = t ** (1.0 / alpha)

    def integrand(s):
        return (gammainc(k + 1, lam * s)
                * _stable_pdf_unit(s / scale, alpha) / scale)

    mid = (k + 1.0) / lam + scale
    total = 0.0
    for a, b in ((0.0, mid), (mid, 10.0 * mid)):
        val, _ = integrate.quad(integrand, a, b, limit=200)
        total += val
    # map the tail onto (0, 1/(10*mid)] to keep the quadrature finite
    val, _ = integrate.quad(lambda v: integrand(1.0 / v) / v ** 2,
                            0.0, 1.0 / (10.0 * mid), limit=200)
    return total + val
