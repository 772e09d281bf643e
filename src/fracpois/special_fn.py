"""Scalar special functions underlying the fractional Poisson laws.

Everything in this module is built on one family of series,

    S_k = sum_{r>=0}  w**r / Gamma(nu*r + 1) * ffact(r, k),   w <= 0,

where ``ffact(r, k) = r*(r-1)*...*(r-k+1)`` is the integer falling
factorial.  With k = 0 this is the one-parameter Mittag-Leffler series
E_nu(w); ((-1)**k / k!) * S_k is the time-fractional Poisson mass at k
with lam * t**nu = -w, the row from which ``dist`` builds every law (at
alpha < 1 by composing it with the Sibuya law, which cancels nothing).

The series alternate and the intermediate terms can be many orders of
magnitude larger than the sum.  One engine, ``_sum_series``, sums every
such series in this package (also the direct time-fractional form in
``dist``).  A cheap double-precision profile of the term magnitudes sizes
the mpmath working precision of the k-independent factors
w**r / Gamma(nu*r + 1) and places, for each row k, a fixed-point grid
just below the row's peak term.  Everything else is exact Python-integer
arithmetic: each term is the integer mantissa of its factor times the
integer falling factorial, truncated onto its row's grid and summed
exactly.  The engine stops once the geometric tail is within
rel_tol (tested in integers) and redoes the sum with more digits when the
cancellation it measures outruns the precision.  Every result carries an
explicit absolute error certificate: the tail, plus a rounding term
derived from that arithmetic (the roundings of each factor, and one grid
unit per term).

Where that profile shows the Mittag-Leffler series cancelling more digits
than a double holds, or taking more terms than the integral would,
``mittag_leffler`` switches to a second engine: the positive-kernel
integral of E_nu on the negative axis, summed in doubles by the
trapezoidal rule with a certified error bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import libmp

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)

# log10 headroom usable by a double accumulator (2**52 ~ 15.65 digits)
_DOUBLE_HEADROOM_DIGITS = 52 * math.log10(2.0)
_EPS = 2.0 ** -52           # machine epsilon of a double
# the series stop rule: past the peak, terms must fall by this ratio or less
_STOP_RATIO = 0.9
# the prescan ends once every row's last term is this many nats below both
# its peak and 1 (and past its hump; see _kernel_profile)
_PRESCAN_DROP = 250.0
# bits of each row's summation grid below the working precision, so that
# truncating a term onto the grid errs by 2**-16 of its rounding allowance
_GRID_GUARD_BITS = 16


class NonConvergence(ArithmeticError):
    """Raised when a series fails to meet its tolerance within max_terms."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the series evaluators."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


@dataclass(frozen=True)
class EvalResult:
    """A series value together with its error certificate."""

    value: float
    abs_error_bound: float
    terms_used: int


DEFAULT_CONFIG = SeriesConfig()


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma of each entry of a 1-D array of positive doubles
    (``math.lgamma`` elementwise)."""
    return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)


def _scan_profile(block, rows: int, rmax: int, r_concave: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log term magnitudes of one or more series, r = 0, 1, ...

    ``block(r)`` maps a float array of term indices to the (len(r), rows)
    matrix of the rows' log magnitudes.  The scan runs in doubling blocks
    (64, 64, 128, ..., each matrix within 2e6 entries) up to r = rmax and
    stops early once r > r_concave, past which every row's log magnitude
    is concave in r, the last row has fallen by a ratio of at most
    _STOP_RATIO, and the last term of every row lies _PRESCAN_DROP nats
    below both its row's peak and 1: no row peaks again, so the argmax
    and maximum of every row are those of the full scan.

    Returns the last row's log magnitudes and the peak of each row.
    """
    cap = max(1, 2_000_000 // rows)
    peaks = np.full(rows, -np.inf)
    blocks = []
    lo = 0
    while lo <= rmax:
        hi = min(rmax + 1, lo + min(cap, max(lo, 64)))
        lt = block(np.arange(lo, hi, dtype=float))
        lt[~np.isfinite(lt)] = -np.inf
        np.maximum(peaks, lt.max(axis=0), out=peaks)
        last = lt[:, -1]
        blocks.append(last)
        lo = hi
        if (hi - 1 > r_concave and last.size > 1
                and last[-1] - last[-2] <= math.log(_STOP_RATIO)
                and np.all(lt[-1] <= np.minimum(peaks, 0.0)
                           - _PRESCAN_DROP)):
            break
    return np.concatenate(blocks), peaks


def _kernel_profile(kmax: int, w: float, nu: float,
                    max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log magnitudes of the terms of S_kmax, r = 0, 1, ..., and
    the peak log magnitude of each row S_0..S_kmax.

    Cheap double-precision scan (``_scan_profile``, up to
    r = min(max_terms, 50_000)) used only to size the working precision,
    locate the hump of the series and place each row's summation grid; not
    part of any certificate.  Past r = kmax + 2 every row is concave
    in r, so the scan may stop there once every row has fallen
    _PRESCAN_DROP nats below its peak and 1; the stop rule's test on the
    last row (ratio at most _STOP_RATIO, tail within rel_tol) then holds
    within the profile for any rel_tol above exp(-_PRESCAN_DROP).
    """
    logw = math.log(abs(w))
    j = np.arange(kmax, dtype=float)

    def block(r):
        lt = r * logw - _lgamma(nu * r + 1.0)
        # row k adds sum_{j<k} log|r - j|: a cumsum over j
        rows = lt[:, None] + np.cumsum(np.log(
            np.abs(r[:, None] - j[None, :])), axis=1)
        return np.column_stack((lt, rows))

    with np.errstate(divide="ignore", invalid="ignore"):
        return _scan_profile(block, kmax + 1, min(max_terms, 50_000),
                             kmax + 2)


def _kernel_bases(w: float, nu: float):
    """w**r / Gamma(nu*r + 1) for r = 0, 1, ..., in the working precision.

    nu*r + 1 is exact in the least working precision (110 bits) unless
    nu < ~1e-17, where it lies so close to 1 that its rounding moves
    rgamma by less than two roundings; so base r is within r + 4
    roundings: the power's r - 1, rgamma's and the product's.
    """
    wmp, num = mp.mpf(w), mp.mpf(nu)
    wpow = mp.mpf(1)
    for r in itertools.count():
        yield wpow * mp.rgamma(num * r + 1)
        wpow *= wmp


def _sum_series(bases, peaks, profile: np.ndarray, cfg: SeriesConfig):
    """Rows S_k = sum_r base_r * ffact(r, k), k = 0..len(peaks)-1.

    ``bases`` is called inside the working precision and returns an
    iterator over the k-independent factors base_0, base_1, ... as mpf,
    each within (3r + 5) roundings of its exact value.  The falling
    factorial FF_k = r*(r-1)*...*(r-k+1) of term r is an exact integer.
    ``peaks`` holds each row's peak natural-log term magnitude and
    ``profile`` the log term magnitudes of the last row, both in doubles:
    the profile's peak sets the working precision (40 digits above the
    peak term, prec bits) and the index rpeak past which the sum may stop.

    The sums are exact Python integers.  Term (r, k) is the exact product
    +-man*FF_k*2**exp of base_r = +-man*2**exp and FF_k; its
    magnitude is truncated onto row k's grid, 2**E_k with E_k set
    prec + _GRID_GUARD_BITS bits below the row's peak term, and added to
    the row's sum and sum of |terms| in units of 2**E_k.

    The sum stops after three consecutive terms, in every row, that fall
    by a ratio q <= _STOP_RATIO and whose geometric tail last*q/(1-q) is
    within rel_tol of |partial sum| + rounding; both tests are made in
    integers.  So NonConvergence is raised before any mpmath work when
    rpeak + 3 exceeds cfg.max_terms.
    Each row's bound is that tail plus its rounding: (3R + 2) * 2**-prec
    times its sum of |terms| for the bases (R terms summed), and one grid
    unit per term for the truncation.  When some row cancels more digits
    than the precision leaves room for, the sum is redone with more
    digits (at most twice).

    Returns (sums, bounds, terms_used) with mpf sums and bounds, both
    exact images of their integers.
    """
    kmax = len(peaks) - 1
    tol_num, tol_den = cfg.rel_tol.as_integer_ratio()
    q_num, q_den = _STOP_RATIO.as_integer_ratio()
    rpeak = int(np.argmax(profile))
    if rpeak + 3 > cfg.max_terms:
        # the stop rule needs three terms past the peak
        raise NonConvergence(
            f"series needs more than {cfg.max_terms} terms: its terms "
            f"peak at r >= {rpeak} (k<={kmax})")
    dps = max(32, int(profile[rpeak] / _LN10) + 40)
    for _ in range(3):
        with mp.workdps(dps):
            prec = mp.mp.prec
            grid = [math.floor(p / _LN2) - prec - _GRID_GUARD_BITS
                    for p in peaks]
            sums = [0] * (kmax + 1)
            abssums = [0] * (kmax + 1)
            lastabs = [0] * (kmax + 1)
            prevabs = [0] * (kmax + 1)
            terms = bases()
            streak = 0
            r = 0
            while True:
                if r > cfg.max_terms:
                    raise NonConvergence(
                        f"series did not converge within {cfg.max_terms} "
                        f"terms (k<={kmax})")
                neg, ff, exp, _ = next(terms)._mpf_
                ok = r > rpeak
                for k in range(kmax + 1):
                    sh = exp - grid[k]
                    # truncate the magnitude: >> floors negative numbers
                    at = ff << sh if sh >= 0 else ff >> -sh
                    s = sums[k] = sums[k] - at if neg else sums[k] + at
                    a = abssums[k] = abssums[k] + at
                    prev = prevabs[k] = lastabs[k]
                    lastabs[k] = at
                    if ok:
                        # tail at*q/(1-q) with q = at/prev, against rel_tol
                        thr = tol_num * (abs(s) + ((3 * r + 5) * a >> prec)
                                         + r + 1)
                        if (q_den * at > q_num * prev
                                or at * at * tol_den > thr * (prev - at)):
                            ok = False
                    # FF_{k+1} = FF_k * (r - k), zero from k = r on
                    ff *= r - k
                streak = streak + 1 if ok else 0
                if streak >= 3:
                    break
                r += 1
            worst = 0
            for total, abssum in zip(sums, abssums):
                if abssum == 0:
                    continue
                cancel = (math.log10(abssum) - math.log10(abs(total))
                          if total else dps)
                worst = max(worst, int(cancel) + 32 - dps)
        if worst <= 0:
            break
        dps += worst + 8
    n = r + 1
    bounds = []
    for last, prev, abssum, g in zip(lastabs, prevabs, abssums, grid):
        tail = -(-last * last // (prev - last)) if last else 0
        units = tail + ((3 * n + 2) * (abssum + n) >> prec) + 1 + n
        bounds.append(mp.make_mpf(libmp.from_man_exp(units, g)))
    return ([mp.make_mpf(libmp.from_man_exp(s, g))
             for s, g in zip(sums, grid)], bounds, n)


def _kernel_rows(kmax: int, w: float, nu: float, cfg: SeriesConfig | None):
    """S_k for k = 0..kmax as (mpf values, mpf bounds, terms_used).

    Values are mpf so that callers may rescale (e.g. divide by k!) before
    converting to double.
    """
    if not 0 < nu <= 1:
        raise ValueError("time_nu must lie in (0, 1]")
    if kmax < 0:
        raise ValueError("k must be >= 0")
    if w > 0:
        raise ValueError("w must be <= 0")
    cfg = cfg or DEFAULT_CONFIG
    if w == 0.0:
        return [mp.mpf(1)] + [mp.mpf(0)] * kmax, [mp.mpf(0)] * (kmax + 1), 1
    profile, peaks = _kernel_profile(kmax, w, nu, cfg.max_terms)
    return _sum_series(lambda: _kernel_bases(w, nu), peaks, profile, cfg)


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
    with np.errstate(over="ignore"):        # cuts beyond 1e308 at tiny s
        cuts = (2.0 ** np.arange(-4, 8) / kappa) ** nu / s
        at = np.arctan((cuts - c) / sn)
    decay = np.exp(-kappa * (s * cuts) ** (1.0 / nu))
    split = at + math.atan(c / sn) + decay * (0.5 * math.pi - at)
    return min(float(split.min()), math.pi - phi) / sn


def _ml_integral(nu: float, s: float, cfg: SeriesConfig,
                 limit: float) -> EvalResult | None:
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
    Spec. Funct. 26, 2015).  Returns None, before any evaluation, when
    the rule would need ``limit`` terms or more, and also when the
    certified bound still misses rel_tol; raises NonConvergence when it
    would need more than cfg.max_terms terms.
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
        x = max(1.0, math.log(h * x ** nu + nu * x ** (nu - 1))
                - math.log(s) - math.log(d_right * tau / 8))
    k_lo = math.floor(log_t / h)
    k_hi = math.ceil((nu * math.log(x + 1) - math.log(s)) / h)
    t = math.exp(k_lo * h)
    n_left = max(1, math.ceil(math.log(tau / 16 * (1 - t)) / math.log(t)) - 1)
    terms = k_hi - k_lo + n_left
    if terms >= limit:
        return None
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


def _series_length(profile: np.ndarray, rel_tol: float) -> float:
    """Terms the stop rule of ``_sum_series`` takes on ``profile``, whose
    log term ratios decrease past the peak, with the sum taken as 1;
    inf when it would not stop within the profile."""
    rpeak = int(np.argmax(profile))
    lq = np.diff(profile[rpeak:])
    with np.errstate(invalid="ignore", divide="ignore"):
        tail = profile[rpeak + 1:] + lq - np.log(-np.expm1(lq))
    hits = np.flatnonzero((lq <= math.log(_STOP_RATIO))
                          & (tail <= math.log(rel_tol)))
    return rpeak + int(hits[0]) + 4 if hits.size else math.inf


def mittag_leffler(nu: float, x: float, cfg: SeriesConfig | None = None) -> EvalResult:
    """One-parameter Mittag-Leffler function E_nu(x) on the negative axis.

    E_nu(x) = sum_r x**r / Gamma(nu*r + 1), for 0 < nu <= 1 and x <= 0.

    Two engines, chosen from the magnitude profile of the series terms
    (the prescan that also sizes the series' working precision):

    * the positive-kernel integral (``_ml_integral``), a few hundred
      double-precision evaluations of a positive integrand whatever |x|,
      where the alternating series would cancel more digits than a double
      holds, or where the series' stop rule, predicted from the profile,
      would take more terms than the integral does;
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
    profile, peaks = _kernel_profile(0, x, nu, cfg.max_terms)
    if profile.max() / _LN10 > _DOUBLE_HEADROOM_DIGITS:
        limit = math.inf
    else:
        limit = _series_length(profile, cfg.rel_tol)
    res = _ml_integral(nu, -x, cfg, limit)
    if res is not None:
        return res
    vals, bounds, terms = _sum_series(lambda: _kernel_bases(x, nu), peaks,
                                      profile, cfg)
    return _to_double(vals[0], bounds[0], terms)


def wright_psi11_weighted_rows(kmax: int, w: float, time_nu: float = 1.0,
                               cfg: SeriesConfig | None = None
                               ) -> list[EvalResult]:
    """Rows ((-1)**k / k!) * S_k for k = 0..kmax: the time-fractional
    Poisson masses with lam * t**nu = -w.

    The division by k! happens in extended precision so rows remain
    finite doubles even where k! alone would overflow.
    """
    vals, bounds, terms = _kernel_rows(kmax, w, time_nu, cfg)
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
