"""Closed-form laws of the space-, time- and space-time fractional
Poisson processes: PMF, PGF, CDF and first-passage distributions.

Every PGF is G(u, t) = E_nu(-lam**alpha * t**nu * (1-u)**alpha) = Q(S(u)),
with Q the PGF of the time-fractional law (alpha = 1) at rate lam**alpha
and S(u) = 1 - (1-u)**alpha the PGF of the Sibuya law, whose masses
s_j = -c_j(alpha) (``frac_ops.frac_binom_coeffs``) are all positive
(Steutel & van Harn, Ann. Probab. 7, 1979; Devroye, Stat. Probab. Lett.
18, 1993).  So a PMF row is the alpha = 1 row q (Poisson at nu = 1, else
the certified series of :mod:`fracpois.special_fn`) and, at alpha < 1,
p_k = sum_{m<=k} q_m * [u**k] S(u)**m: a positive sum, nothing cancels.
Elsewhere closed forms (exp / Poisson / Erlang) are used where they exist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .frac_ops import frac_binom_coeffs
from .special_fn import (_EPS, DEFAULT_CONFIG, EvalResult, NonConvergence,
                         SeriesConfig, _exp_error_bound, _lgamma,
                         _scan_profile, _sum_series, _to_double,
                         mittag_leffler, wright_psi11_weighted_rows)

__all__ = [
    "ProcessParams", "PmfRow", "pmf", "pmf_row", "pmf_time_fractional_direct",
    "pgf", "pgf_partial_sum", "cdf", "first_passage", "first_passage_cdf",
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
    """PMF values for k = 0..kmax at time t, each with an error bound.

    At alpha < 1 the alpha = 1 row q is composed with the Sibuya law by
    Horner's rule in S, P = q_m + S * P for m = kmax..0, level m keeping
    the kmax - m + 1 entries that can still reach k <= kmax.  Entry 0 of
    each level is q_m itself (S has no constant term), so p_0 = q_0 with
    q_0's bound.  A negative q_m is raised to 0, towards the true mass, so
    its bound still holds; then every weight is positive and the error of
    p_k has three parts:

    * the bounds of q, carried through the same Horner pass;
    * rounding: s_j is within 3j roundings (its product recurrence) and
      entry k' of a level sums at most k' positive products, so a term's
      path to entry k, through entries k' < k'' < ... <= k, meets at most
      k*(k+1)/2 + 3k roundings; four more form the bound;
    * underflow: each product may lose ulp(0)/2 outright; the
      k*(k+1)*(k+2)/6 products reaching entry k in each pass are carried
      with weights below 1 ([u**k] (1-u)**-alpha <= 1), and one more
      ulp(0) covers forming the bound.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    if t == 0.0:
        return [PmfRow(k, 1.0 if k == 0 else 0.0, 0.0)
                for k in range(kmax + 1)]
    w = _series_argument(params, t)
    if params.nu == 1.0:
        q = [_poisson_row(-w, m) for m in range(kmax + 1)]
    else:
        q = [PmfRow(m, r.value, r.abs_error_bound) for m, r in enumerate(
            wright_psi11_weighted_rows(kmax, w, params.nu, cfg))]
    if params.alpha == 1.0:
        return q
    sib = -frac_binom_coeffs(params.alpha, kmax)[1:]    # s_1..s_kmax
    qv = np.maximum([row.p for row in q], 0.0)
    qb = np.array([row.abs_error_bound for row in q])
    p, b = qv[kmax:], qb[kmax:]
    for m in range(kmax - 1, -1, -1):
        n = kmax - m
        p = np.r_[qv[m], np.convolve(sib[:n], p)[:n]]
        b = np.r_[qb[m], np.convolve(sib[:n], b)[:n]]
    k = np.arange(1.0, kmax + 1)
    theta = (k * (k + 7) / 2 + 4) * (_EPS / 2)    # roundings * unit roundoff
    g = theta / (1 - theta)
    bound = ((b[1:] + g * p[1:]) / (1 - g)
             + (k * (k + 1) * (k + 2) / 6 + 1) * math.ulp(0.0))
    return [q[0]] + [PmfRow(j, float(v), float(e)) for j, v, e in
                     zip(range(1, kmax + 1), p[1:], bound)]


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
    if k == 0 and t > 0 and params.nu != 1.0:
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
    alpha = 1 reduction.  The log term magnitudes are concave in r (the
    ratio of successive terms falls), so the profile is scanned in
    doubling blocks (``special_fn._scan_profile``) up to
    r = min(max_terms, 50_000), stopping once past the peak and
    _PRESCAN_DROP nats below both the peak and 1.
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
    has positive weights and nothing cancels: the bound is lam**alpha times
    the D-weighted row bounds plus the rounding of the products and the sum.
    Both come from one ``pmf_row(params, t, k-1)``.  At alpha = 1 they are
    the Erlang distribution function (``_erlang_cdf``) and density, lam
    times the Poisson(lam*t) mass at k-1.  The density is None where it is
    not defined: k = 0 or t = 0.
    """
    if params.nu != 1.0:
        raise ValueError("first-passage laws require nu = 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
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
    p = np.array([row.p for row in rows])
    bounds = np.array([row.abs_error_bound for row in rows])
    # rounding: the k-term sum and the subtraction from 1
    passed = EvalResult(1.0 - sum(row.p for row in rows), float(bounds.sum())
                        + (k + 1) * _EPS * (1.0 + float(np.abs(p).sum())), k)
    a = lam ** alpha
    # D_n = c_0 + ... + c_n = prod_{i<=n} (1 - alpha/i): positive factors,
    # so each D_n is within 3*n*eps of its exact value
    d = np.cumprod(np.r_[1.0, 1.0 - alpha / np.arange(1, k)])[::-1]
    dens = a * float(d @ p)
    # rounding: D, the products, the sum and lam**alpha
    bound = a * (float(d @ bounds)
                 + (3 * k + 6) * _EPS * float(d @ np.abs(p))) \
        + k * math.ulp(0.0)
    return passed, EvalResult(dens, bound, k)


def first_passage_cdf(params: ProcessParams, t: float, k: int,
                      cfg: SeriesConfig | None = None) -> EvalResult:
    """Pr{tau_k < t} = Pr{N(t) >= k} (nu = 1); see ``first_passage``."""
    return first_passage(params, t, k, cfg)[0]


def first_passage_density(params: ProcessParams, t: float, k: int,
                          cfg: SeriesConfig | None = None) -> EvalResult:
    """Density of tau_k at t > 0 for k >= 1 (nu = 1); see ``first_passage``."""
    if k < 1:
        raise ValueError("k must be >= 1 for the density")
    if not t > 0:
        raise ValueError("t must be > 0")
    return first_passage(params, t, k, cfg)[1]


# ---------------------------------------------------------------------------
# large-k survival via the Poisson-over-stable mixture (nu = 1, alpha = 1/2)

def survival_subordination(params: ProcessParams, t: float, k: int) -> float:
    """Pr{N(t) > k} from the subordinated representation, for any k.

    The space-fractional count is Poisson with random mean lam * S(t),
    S the alpha-stable subordinator, so Pr{N(t) > k} = Pr{G <= lam*S} with
    G ~ Gamma(k+1) independent of S.  At alpha = 1/2 (the Levy case)
    Pr{S(t) >= x} = erf(t / (2*sqrt(x))), hence

        Pr{N(t) > k} = E[erf(c / sqrt(G))],   c = t*sqrt(lam)/2,

    an integral of a positive integrand with no cancellation, well
    conditioned for arbitrarily large k, unlike the alternating series.

    It is summed in doubles by the trapezoidal rule in v = log G about the
    mode log(k+1), where the Gamma(k+1) density is proportional to
    exp(-(k+1)*(expm1(x) - x)), x = v - log(k+1): formed this way its
    argument loses no digits to the cancellation of (k+1)*v, e**v and
    log k!.  The step is min(0.1, 1/(4*sqrt(k+1))), a quarter of the
    density's width; the integrand is analytic in the strip |Im v| < pi/2,
    so the rule's error is far below double rounding.  The rule's sum of
    the density weights, 1 to within that error, normalises the result,
    so no constant of the density enters.  Requires nu = 1 and
    alpha = 1/2.
    """
    if params.nu != 1.0 or params.alpha != 0.5:
        raise ValueError("subordination route requires nu = 1, alpha = 1/2")
    if k < 0:
        raise ValueError("k must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    n = k + 1.0
    h = min(0.1, 0.25 / math.sqrt(n))
    # the log weight -n*(expm1(x) - x) is below -50 outside [lo, hi]:
    # expm1(x) - x is >= x**2/2 for x >= 0; for x < 0 it is >= |x| - 1,
    # and >= x**2/3 while |x| <= 1 (so for n >= 150)
    hi = math.sqrt(100.0 / n)
    lo = -(50.0 / n + 1.0 if n < 150.0 else math.sqrt(150.0 / n))
    x = h * np.arange(math.floor(lo / h), math.ceil(hi / h) + 1)
    weight = np.exp(-n * (np.expm1(x) - x))
    z = t * math.sqrt(params.lam) / (2.0 * math.sqrt(n)) * np.exp(-0.5 * x)
    erf = np.fromiter(map(math.erf, z.tolist()), float, z.size)
    return float(erf @ weight / weight.sum())
