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

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaln

from .special_fn import (DEFAULT_CONFIG, EvalResult, NonConvergence,
                         SeriesConfig, _exp_error_bound, mittag_leffler,
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

    Pr{N_nu(t)=k} = (lam*t**nu)**k/k! * sum_r (r+k)!/r! *
    (-lam*t**nu)**r / Gamma(nu*(k+r)+1).  Used to cross-validate
    ``pmf`` for the alpha = 1 reduction.
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

    # precision sizing from the double-precision term-magnitude profile
    r = np.arange(min(cfg.max_terms, 50_000) + 1, dtype=float)
    with np.errstate(divide="ignore"):
        lt = (gammaln(r + k + 1) - gammaln(r + 1) + r * math.log(x)
              - gammaln(nu * (k + r) + 1.0))
    rpeak = int(np.argmax(lt))
    dps = max(32, int(lt[rpeak] / math.log(10)) + 40)

    with mp.workdps(dps):
        xm = mp.mpf(x)
        # gamma arguments must be built in working precision: forming
        # nu*(k+r) in doubles feeds incoherent argument noise into a
        # heavily cancelling sum
        nu_mp = mp.mpf(nu)
        s = mp.mpf(0)
        abssum = mp.mpf(0)
        rise = mp.mpf(1)        # (r+k)!/r!, updated multiplicatively
        xpow = mp.mpf(1)
        for j in range(1, k + 1):
            rise *= j
        last, prev = mp.mpf(0), mp.inf
        streak = 0
        r = 0
        while True:
            if r > cfg.max_terms:
                raise NonConvergence(
                    f"time-fractional series exceeded {cfg.max_terms} terms")
            term = rise * xpow * mp.rgamma(nu_mp * (k + r) + 1)
            if r % 2:
                term = -term
            s += term
            at = abs(term)
            abssum += at
            prev, last = last, at
            thr = cfg.rel_tol * (abs(s) + abssum * mp.mpf(10) ** (2 - dps))
            if r > rpeak and at <= thr and at <= mp.mpf("0.9") * prev:
                streak += 1
                if streak >= 3:
                    break
            else:
                streak = 0
            r += 1
            rise = rise * (r + k) / r
            xpow *= xm
        q = min(mp.mpf("0.9"), last / prev) if prev > 0 else mp.mpf("0.9")
        tail = last * q / (1 - q)
        scale = xm ** k / mp.factorial(k)
        value = float(scale * s)
        bound = float(scale * (tail + abssum * mp.mpf(10) ** (2 - dps)))
    return PmfRow(k, value, bound)


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
    """Density of tau_k in t, by term-by-term differentiation (nu = 1).

    density(t) = -sum_{m<k} d/dt p_m(t), with
    d/dt p_m = ((-1)**m/m!) sum_{r>=1} (-lam**alpha)**r t**(r-1)/(r-1)!
               * ffact(alpha*r, m).
    At alpha = 1 this is the Erlang density, returned in closed form.
    """
    if params.nu != 1.0:
        raise ValueError("first-passage laws require nu = 1")
    if k < 1:
        raise ValueError("k must be >= 1 for the density")
    if not t > 0:
        raise ValueError("t must be > 0")
    cfg = cfg or DEFAULT_CONFIG
    lam, alpha = params.lam, params.alpha
    if alpha == 1.0:
        mu, lg = lam * t, math.lgamma(k)
        e = math.exp(-mu + (k - 1) * math.log(mu) - lg)
        bound = lam * _exp_error_bound(e, mu + (k - 1) * abs(math.log(mu))
                                      + lg) + math.ulp(0.0)
        return EvalResult(lam * e, bound, 0)

    a = lam ** alpha
    kmax = k - 1
    # d/dt p_m series re-indexed with s = r-1:
    #   -a * sum_{s>=0} (-a*t)**s / s! * ffact(alpha*(s+1), m)
    smax = min(cfg.max_terms, 50_000)
    s = np.arange(smax + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = s * math.log(a * t) - gammaln(s + 1)
        if kmax > 0:
            j = np.arange(kmax, dtype=float)
            lt += np.log(np.abs(alpha * (s[:, None] + 1) - j[None, :])
                         ).sum(axis=1)
    lt[~np.isfinite(lt)] = -np.inf
    speak = int(np.argmax(lt))
    dps = max(32, int(lt[speak] / math.log(10)) + 40)

    with mp.workdps(dps):
        q = mp.mpf(-a) * t
        qpow = mp.mpf(1)
        inv_fact = mp.mpf(1)
        sums = [mp.mpf(0)] * (kmax + 1)
        abssums = [mp.mpf(0)] * (kmax + 1)
        lastabs = [mp.mpf(0)] * (kmax + 1)
        prevabs = [mp.inf] * (kmax + 1)
        streak = 0
        si = 0
        while True:
            if si > cfg.max_terms:
                raise NonConvergence("first-passage density series "
                                     f"exceeded {cfg.max_terms} terms")
            base = qpow * inv_fact
            z = mp.mpf(alpha) * (si + 1)
            ff = mp.mpf(1)
            ok = si > speak
            for m in range(kmax + 1):
                term = base * ff
                sums[m] += term
                at = abs(term)
                abssums[m] += at
                prevabs[m], lastabs[m] = lastabs[m], at
                ff *= z - m
                thr = cfg.rel_tol * (abs(sums[m])
                                     + abssums[m] * mp.mpf(10) ** (2 - dps))
                if ok and (at > thr or at > mp.mpf("0.9") * prevabs[m]):
                    ok = False
            streak = streak + 1 if ok else 0
            if streak >= 3:
                break
            si += 1
            qpow *= q
            inv_fact /= si
        dens = mp.mpf(0)
        bound = mp.mpf(0)
        sign = 1
        fact = mp.mpf(1)
        floor = mp.mpf(10) ** (2 - dps)
        for m in range(kmax + 1):
            if m:
                fact *= m
                sign = -sign
            # d/dt p_m = (sign/fact) * (-a) * sums[m]
            dens += sign / fact * a * sums[m]
            tq = (min(mp.mpf("0.9"), lastabs[m] / prevabs[m])
                  if prevabs[m] > 0 else mp.mpf("0.9"))
            tail = lastabs[m] * tq / (1 - tq)
            bound += a * (tail + abssums[m] * floor) / fact
        return EvalResult(float(dens), float(bound), si + 1)


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
