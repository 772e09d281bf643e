"""Scalar special functions underlying the fractional Poisson laws.

Everything in this module is built on one family of series,

    S_k = sum_{r>=0}  w**r / Gamma(nu*r + 1) * ffact(alpha*r, k),   w <= 0,

where ``ffact(z, k) = z*(z-1)*...*(z-k+1)`` is the falling factorial.
With k = 0 and alpha arbitrary this is the one-parameter Mittag-Leffler
series; with general k it is the inner kernel of the fractional Poisson
probability mass functions.

The series alternate and the intermediate terms can be many orders of
magnitude larger than the sum, so the evaluator sizes its working
precision from a cheap floating-point scan of the term magnitudes and
runs the summation in extended precision (mpmath) whenever plain doubles
cannot absorb the cancellation.  Every result carries an explicit
absolute error certificate (truncation tail + rounding).

Where that scan shows the Mittag-Leffler series cancelling more digits
than a double holds, ``mittag_leffler`` switches to a second engine: the
positive-kernel integral of E_nu on the negative axis, summed in doubles
by the trapezoidal rule with a certified error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import gammaln

_LN10 = math.log(10.0)

# log10 headroom usable by a double accumulator (2**52 ~ 15.65 digits)
_DOUBLE_HEADROOM_DIGITS = 52 * math.log10(2.0)
_EPS = 2.0 ** -52           # machine epsilon of a double


class NonConvergence(ArithmeticError):
    """Raised when a series fails to meet its tolerance within max_terms."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and precision policy for the series evaluators."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000
    working_precision: str = "double_double"

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.working_precision not in ("double", "double_double"):
            raise ValueError("working_precision must be 'double' or 'double_double'")


@dataclass(frozen=True)
class EvalResult:
    """A series value together with its error certificate."""

    value: float
    abs_error_bound: float
    terms_used: int


DEFAULT_CONFIG = SeriesConfig()


def gamma_ratio_ff(z: float, k: int) -> float:
    """Falling factorial z*(z-1)*...*(z-k+1), i.e. Gamma(z+1)/Gamma(z+1-k).

    Computed as a plain product so the gamma poles/zeros cancel
    algebraically; total for every real z and k >= 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    p = 1.0
    for j in range(k):
        p *= z - j
    return p


def _log10_max_term(alpha: float, kmax: int, w: float, nu: float,
                    max_terms: int) -> tuple[float, int]:
    """Peak log10 term magnitude (at k = kmax) and its index r.

    Cheap double-precision scan used only to size the working precision
    and locate the hump of the series; not part of any certificate.
    """
    rmax = min(max_terms, 50_000)
    r = np.arange(rmax + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = r * math.log(abs(w)) - gammaln(nu * r + 1.0)
        if kmax > 0:
            # sum_j log|alpha*r - j| accumulated in chunks to bound memory
            j = np.arange(kmax, dtype=float)
            step = max(1, 2_000_000 // (kmax + 1))
            for lo in range(0, rmax + 1, step):
                hi = min(lo + step, rmax + 1)
                lt[lo:hi] += np.log(
                    np.abs(alpha * r[lo:hi, None] - j[None, :])
                ).sum(axis=1)
    lt[~np.isfinite(lt)] = -np.inf
    i = int(np.argmax(lt))
    return float(lt[i]) / _LN10, i


def _rows_float(alpha: float, kmax: int, w: float, nu: float,
                cfg: SeriesConfig, rpeak: int):
    """Double-precision summation path (certified easy cases only)."""
    sums = [0.0] * (kmax + 1)
    abssums = [0.0] * (kmax + 1)
    lastabs = [0.0] * (kmax + 1)
    prevabs = [math.inf] * (kmax + 1)
    streak = 0
    r = 0
    while True:
        if r > cfg.max_terms:
            raise NonConvergence(
                f"series did not converge within {cfg.max_terms} terms")
        base = math.exp(r * math.log(abs(w)) - gammaln(nu * r + 1)) if r else 1.0
        if w < 0 and r % 2:
            base = -base
        ff = 1.0
        z = alpha * r
        ok = r > rpeak
        for k in range(kmax + 1):
            t = base * ff
            sums[k] += t
            at = abs(t)
            abssums[k] += at
            prevabs[k], lastabs[k] = lastabs[k], at
            ff *= z - k
            if ok:
                thr = cfg.rel_tol * (abs(sums[k]) + 1e-14 * abssums[k])
                if at > thr or at > 0.9 * prevabs[k]:
                    ok = False
        streak = streak + 1 if ok else 0
        if streak >= 3:
            break
        r += 1
    out = []
    for k in range(kmax + 1):
        q = 0.9 if prevabs[k] == 0 else min(0.9, lastabs[k] / prevabs[k])
        tail = lastabs[k] * q / (1.0 - q)
        bound = tail + 4e-16 * abssums[k]
        out.append((sums[k], bound))
    return out, r + 1


def _rows_mp_at(alpha: float, kmax: int, w: float, nu: float,
                cfg: SeriesConfig, dps: int, rpeak: int):
    with mp.workdps(dps):
        zero = mp.mpf(0)
        sums = [zero] * (kmax + 1)
        abssums = [zero] * (kmax + 1)
        lastabs = [zero] * (kmax + 1)
        prevabs = [mp.inf] * (kmax + 1)
        wmp = mp.mpf(w)
        wpow = mp.mpf(1)
        numr = mp.mpf(nu)
        floor = mp.mpf(10) ** (2 - dps)
        streak = 0
        r = 0
        while True:
            if r > cfg.max_terms:
                raise NonConvergence(
                    f"series did not converge within {cfg.max_terms} terms "
                    f"(|w|={abs(w):.3g}, nu={nu}, k<={kmax})")
            base = wpow * mp.rgamma(numr * r + 1)
            ff = mp.mpf(1)
            z = mp.mpf(alpha) * r
            ok = r > rpeak
            for k in range(kmax + 1):
                t = base * ff
                sums[k] += t
                at = abs(t)
                abssums[k] += at
                prevabs[k], lastabs[k] = lastabs[k], at
                ff *= z - k
                if ok:
                    thr = cfg.rel_tol * (abs(sums[k]) + floor * abssums[k])
                    if at > thr or at > mp.mpf("0.9") * prevabs[k]:
                        ok = False
            streak = streak + 1 if ok else 0
            if streak >= 3:
                break
            wpow *= wmp
            r += 1
        tails = []
        for k in range(kmax + 1):
            if prevabs[k] == 0:
                tails.append(zero)
            else:
                q = min(mp.mpf("0.9"), lastabs[k] / prevabs[k])
                tails.append(lastabs[k] * q / (1 - q))
        rounding = [a * floor for a in abssums]
        return sums, tails, rounding, abssums, r + 1


def _series_rows(alpha: float, kmax: int, w: float, nu: float,
                 cfg: SeriesConfig, scan: tuple[float, int] | None = None):
    """Evaluate S_k for k = 0..kmax as (mpf value, mpf bound) pairs.

    Returns (values, bounds, terms_used).  Values are mpf so that callers
    may rescale (e.g. divide by k!) before converting to double.  ``scan``
    is the result of ``_log10_max_term`` when the caller already has it.
    """
    if w > 0:
        raise ValueError("w must be <= 0")
    if w == 0.0:
        one = mp.mpf(1)
        vals = [one] + [mp.mpf(0)] * kmax
        return vals, [mp.mpf(0)] * (kmax + 1), 1

    log10max, rpeak = scan or _log10_max_term(alpha, kmax, w, nu,
                                              cfg.max_terms)

    if cfg.working_precision == "double":
        # crude cancellation-headroom certificate for a double accumulator
        if log10max - math.log10(cfg.rel_tol) <= _DOUBLE_HEADROOM_DIGITS:
            pairs, terms = _rows_float(alpha, kmax, w, nu, cfg, rpeak)
            vals = [mp.mpf(v) for v, _ in pairs]
            bounds = [mp.mpf(b) for _, b in pairs]
            return vals, bounds, terms
        # headroom not certified: escalate to the extended-precision path

    dps = max(32, int(log10max) + 40)
    for _ in range(3):
        sums, tails, rounding, abssums, terms = _rows_mp_at(
            alpha, kmax, w, nu, cfg, dps, rpeak)
        worst = 0
        for k in range(kmax + 1):
            if abssums[k] == 0:
                continue
            s = abs(sums[k])
            cancel = mp.log10(abssums[k] / s) if s > 0 else mp.mpf(dps)
            worst = max(worst, int(cancel) + 32 - dps)
        if worst <= 0:
            break
        dps += worst + 8
    bounds = [tails[k] + rounding[k] for k in range(kmax + 1)]
    return sums, bounds, terms


def _to_double(value, bound, terms: int) -> EvalResult:
    """A series value rounded to double, its bound widened by that rounding."""
    v = float(value)
    return EvalResult(v, float(bound) + _EPS * abs(v), terms)


def _exp_error_bound(value: float, cond: float = 0.0) -> float:
    """Error bound of ``value = exp(z)`` evaluated in doubles.

    ``cond`` is the condition sum of the computed argument: the sum of the
    magnitudes of the terms z is built from (e.g. mu + k*|log mu| +
    lgamma(k+1) for a Poisson mass), so that each rounding step of the
    argument errs by at most eps * cond.  The bound allows eight such steps
    in the argument, four ulps for exp and a final product, and the
    underflow of a result below the smallest subnormal.
    """
    return value * (math.expm1(8 * _EPS * cond) + 4 * _EPS) + math.ulp(0.0)


def _ml_line_bound(s: float, nu: float, kappa: float, phi: float) -> float:
    """Bound on int_0^inf exp(-kappa*(s*r)**(1/nu)) / Q(r) dr, where
    Q(r) = r**2 - 2*r*cos(phi) + 1 (see ``_ml_integral``).

    Below a cut R the exponential is at most 1 and above it at most its
    value at R; 1/Q integrates in closed form on both pieces.  The least of
    these bounds over a few cuts is returned, or the cut-free bound
    (pi - phi) / sin(phi) if that is smaller.
    """
    c, sn = math.cos(phi), math.sin(phi)
    cuts = (2.0 ** np.arange(-4, 8) / kappa) ** nu / s
    at = np.arctan((cuts - c) / sn)
    decay = np.exp(-kappa * (s * cuts) ** (1.0 / nu))
    split = at + math.atan(c / sn) + decay * (0.5 * math.pi - at)
    return min(float(split.min()), math.pi - phi) / sn


def _ml_integral(nu: float, s: float, cfg: SeriesConfig) -> EvalResult | None:
    """E_nu(-s) for 0 < nu < 1 and s > 0 from its positive-kernel integral

        E_nu(-s) = sin(nu*pi)/(nu*pi) * int_0^inf exp(-(s*y)**p)/D(y) dy,
        p = 1/nu,  D(y) = y**2 + 2*y*cos(nu*pi) + 1
                        = (y - cos th)**2 + sin(th)**2,

    with th = (1 - nu)*pi (the completely monotone kernel of Gorenflo,
    Loutchko & Luchko, FCAA 5, 2002, after r = y**(1/nu)).

    In v = log y the integrand F(v) = y*exp(-(s*y)**p)/D(y) is analytic
    apart from simple poles at v = +-i*th and decays along every line
    |Im v| = a < nu*pi/2.  So the trapezoidal rule h*sum_k F(k*h) errs by
    at most 2*M/(exp(2*pi*a/h) - 1), M bounding the integral of |F| along
    Im v = +-a, once the residues of poles inside the strip are removed
    exactly (Trefethen & Weideman, SIAM Rev. 56, 2014, Thm 5.1).  Nodes
    below k_lo*h are summed in closed form from 1/D(y) = sum_m U_m(cos th)
    y**m (Chebyshev U); nodes from k_hi*h on are bounded by an
    incomplete-gamma tail.  The integrand is positive, so nothing cancels;
    rounding is bounded node by node.

    Each error source gets a share of rel_tol * L, where
    L = 1/(1 + Gamma(1-nu)*s) <= E_nu(-s) (T. Simon, Integral Transforms
    Spec. Funct. 26, 2015).  Returns None when the certified bound still
    misses rel_tol; raises NonConvergence when the rule would need more
    than cfg.max_terms terms.
    """
    p = 1.0 / nu
    th = math.pi * (1.0 - nu)
    th_small = math.pi * min(nu, 1.0 - nu)       # sin(th) = sin(th_small)
    sin_t = math.sin(th_small)
    cos_t = math.sin(math.pi * (nu - 0.5))       # cos(th), exact argument
    scale = sin_t / (nu * math.pi)
    # absolute error budget of the bare integral: rel_tol * L / scale
    tau = cfg.rel_tol / (1.0 + math.gamma(1.0 - nu) * s) / scale
    d_right = sin_t * sin_t if cos_t > 0 else 1.0    # min of D on y >= 0
    # below t = exp(log_t), exp(-(s*y)**p) = 1 within tau/8 of the sum
    log_t = min(math.log(0.5), (math.log(tau / 32 * (1 + p))
                                - p * math.log(s)) / (1 + p))
    # strip half-width: wide, but with its edge kept off the pole
    a = 0.9 * nu * math.pi / 2
    if abs(a - th) < 0.05 * a:
        a = 0.7 * nu * math.pi / 2
    m = _ml_line_bound(s, nu, math.cos(p * a), abs(a - th))
    h = 2 * math.pi * a / math.log1p(4 * m / tau)
    # right cut: the tail bound below is at most tau/8 once (s*y)**p >= x;
    # the fixed point is approached from below, so the cut sits at x + 1
    x = 1.0
    for _ in range(6):
        x = max(1.0, math.log((h * x ** nu + nu * x ** (nu - 1))
                              / (s * d_right * tau / 8)))
    k_lo = math.floor(log_t / h)
    k_hi = math.ceil((nu * math.log(x + 1) - math.log(s)) / h)
    t = math.exp(k_lo * h)
    n_left = max(1, math.ceil(math.log(tau / 16 * (1 - t)) / math.log(t)) - 1)
    terms = k_hi - k_lo + n_left
    if terms > cfg.max_terms:
        raise NonConvergence(
            f"Mittag-Leffler integral needs {terms} terms, more than "
            f"{cfg.max_terms} (nu={nu}, x={-s:.6g})")

    v = h * np.arange(k_lo, k_hi)
    y = np.exp(v)
    ay = (s * y) ** p
    u = y - cos_t
    d = u * u + sin_t * sin_t
    f = y * np.exp(-ay) / d
    body = h * float(f.sum())
    j = np.arange(1, n_left + 1)
    cheb = np.sin(j * th_small) / sin_t          # U_{j-1}(cos th)
    if nu < 0.5:
        cheb[1::2] = -cheb[1::2]
    left = h * float(np.sum(cheb * t ** j / np.expm1(j * h)))
    pole = pole_err = 0.0
    if a > th:
        # residues at v = +-i*th, weighted by the trapezoidal kernel:
        # 2*pi*Re(g)/(sin th*(exp(2*pi*th/h) - 1)), g = exp(-w*e^(i*p*th))
        w = s ** p
        weight = (2 * math.pi * math.exp(-w * math.cos(p * th))
                  / (sin_t * math.expm1(2 * math.pi * th / h)))
        pole = weight * math.cos(w * math.sin(p * th))
        pole_err = weight * (8 + w * (2 + 2 * p * th) + 2 * math.pi * th / h)
    value = scale * (body + left - pole)

    quad = 2 * m / math.expm1(2 * math.pi * a / h)
    y_n = math.exp(k_hi * h)
    x_n = (s * y_n) ** p
    d_n = (y_n - cos_t) ** 2 + sin_t ** 2 if y_n >= cos_t else sin_t ** 2
    # nodes from k_hi on: F <= y*exp(-(s*y)**p)/d_n, decreasing there
    right = (h * y_n + nu * x_n ** (nu - 1) / s) * math.exp(-x_n) / d_n
    # nodes below k_lo: exp(-(s*y)**p) taken as 1, Chebyshev series cut
    cut = (math.exp(p * math.log(s * t)) * t / ((1 - t) ** 2 * (1 + p))
           + t ** (n_left + 1) / (1 - t))
    # first-order relative error of each node, in eps: the node k*h, exp,
    # the power (s*y)**p and its exponential, y - cos th and D
    rel = ((np.abs(v) + 1) * (1 + p * ay) + (p + 1) * ay
           + 2 * np.abs(u) * ((np.abs(v) + 2) * y + 1) / d + 9)
    rounding = _EPS * (h * float(np.sum(f * rel))
                       + (math.log2(f.size) + 2) * body
                       + (abs(k_lo * h) + 8) * t / (1 - t) ** 2 + pole_err)
    bound = scale * (quad + right + cut + 2 * rounding) + 6 * _EPS * value
    if not bound <= cfg.rel_tol * value:
        return None
    return EvalResult(value, bound, terms)


def mittag_leffler(nu: float, x: float, cfg: SeriesConfig | None = None) -> EvalResult:
    """One-parameter Mittag-Leffler function E_nu(x) on the negative axis.

    E_nu(x) = sum_r x**r / Gamma(nu*r + 1), for 0 < nu <= 1 and x <= 0.

    Two engines, chosen by the peak term magnitude of the series (the
    prescan that also sizes the series' working precision):

    * where the alternating series would cancel more digits than a double
      holds, or could not finish within cfg.max_terms, the positive-kernel
      integral (``_ml_integral``): a few hundred double-precision
      evaluations of a positive integrand, whatever |x|;
    * elsewhere the series itself, which is short there.  It also covers
      nu -> 1 at small |x|, where the integrand peaks sharply at y = 1.

    At nu = 1 the value is exp(x).  Both engines work to cfg.rel_tol and
    report a certified abs_error_bound; the integral keeps its result only
    when that bound is within rel_tol of the value, and the series runs
    otherwise.  NonConvergence is raised when the engine would
    need more than cfg.max_terms terms: series terms, or integrand
    evaluations plus closed-form left-tail terms for the integral.
    """
    if not 0 < nu <= 1:
        raise ValueError("nu must lie in (0, 1]")
    if x > 0:
        raise ValueError("x must be <= 0")
    cfg = cfg or DEFAULT_CONFIG
    if x == 0.0:
        return EvalResult(1.0, 0.0, 1)
    if nu == 1.0:
        v = math.exp(x)
        return EvalResult(v, _exp_error_bound(v), 1)
    scan = _log10_max_term(1.0, 0, x, nu, cfg.max_terms)
    # the series' stop rule needs terms below rel_tol that fall by a ratio
    # of 0.9 or less; past the peak both only improve with r, so if the
    # terms at max_terms fail them the series cannot stop within budget
    n, lgx = cfg.max_terms, math.log(-x)
    last = n * lgx - math.lgamma(nu * n + 1)
    ratio = lgx + math.lgamma(nu * n + 1) - math.lgamma(nu * (n + 1) + 1)
    unfinished = last > math.log(cfg.rel_tol) or ratio > math.log(0.9)
    if scan[0] > _DOUBLE_HEADROOM_DIGITS or unfinished:
        res = _ml_integral(nu, -x, cfg)
        if res is not None:
            return res
    vals, bounds, terms = _series_rows(1.0, 0, x, nu, cfg, scan)
    return _to_double(vals[0], bounds[0], terms)


def wright_psi11_kernel(alpha: float, k: int, w: float, time_nu: float = 1.0,
                        cfg: SeriesConfig | None = None) -> EvalResult:
    """Inner kernel sum_r w**r / Gamma(nu*r+1) * ffact(alpha*r, k).

    The shared series of the space-fractional (nu=1) and space-time
    fractional probability mass functions.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 < time_nu <= 1:
        raise ValueError("time_nu must lie in (0, 1]")
    if k < 0:
        raise ValueError("k must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    vals, bounds, terms = _series_rows(alpha, k, w, time_nu, cfg)
    return _to_double(vals[k], bounds[k], terms)


def wright_psi11_weighted_rows(alpha: float, kmax: int, w: float,
                               time_nu: float = 1.0,
                               cfg: SeriesConfig | None = None) -> list[EvalResult]:
    """Rows ((-1)**k / k!) * S_k for k = 0..kmax (the PMF weighting).

    The division by k! happens in extended precision so rows remain
    finite doubles even where k! alone would overflow.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 < time_nu <= 1:
        raise ValueError("time_nu must lie in (0, 1]")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    vals, bounds, terms = _series_rows(alpha, kmax, w, time_nu, cfg)
    out = []
    sign = 1
    fact = mp.mpf(1)
    for k in range(kmax + 1):
        if k:
            fact *= k
            sign = -sign
        out.append(_to_double(sign * vals[k] / fact, bounds[k] / fact,
                              terms))
    return out
