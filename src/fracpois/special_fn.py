"""Scalar special functions underlying the fractional Poisson laws.

Every law in ``dist`` is built on the time-fractional row

    p_k = ((-1)**k / k!) * S_k,
    S_k = sum_{r>=0} w**r / Gamma(nu*r + 1) * ffact(r, k),

with w = -lam**alpha * t**nu <= 0 and ``ffact(r, k) = r*(r-1)*...*(r-k+1)``
the integer falling factorial (at alpha < 1 ``dist`` composes it with
the Sibuya law, which cancels nothing).  With k = 0 this is the
one-parameter Mittag-Leffler series E_nu(w).  The row serves
0 < nu < 1 (at nu = 1 every law has a Poisson closed form).  It takes w
as its exact factors and forms it in its working precision, so its
certificates hold at the exact argument.  Two engines compute it:

* the contour engine (``_contour_rows``), which
  ``wright_psi11_weighted_rows`` runs first: the trapezoidal rule on a
  parabolic Bromwich contour for the Laplace transform
  x**k s**(nu-1) / (s**nu + x)**(k+1) of p_k, x = -w.  One set of nodes
  gives the whole row, a complex product per node and entry, at a
  modest precision and with no gamma function.  The nodes
  (``_contour_nodes``) are libmp and Gaussian-integer arithmetic: e**s
  by a product recurrence over the nodes, s**nu from one log, atan, exp
  and cos_sin each, the parts free of x cached per order, node count and
  precision (``_x_free_nodes``).  Doubles size the rule
  (``_contour_estimate``).  Its bound adds the trapezoidal error from the
  strip of analyticity of the integrand, the nodes cut off and the
  rounding of the node arithmetic.  It returns a certified row or raises
  NonConvergence.
* the series engine (``_sum_series`` over ``_kernel_bases``), which runs
  where the contour raises and the series can finish.  The series
  alternate and the intermediate terms can be many orders of magnitude
  larger than the sum.  A cheap double-precision profile of the term
  magnitudes (``_kernel_profile``) sizes the mpmath working precision of
  the k-independent factors w**r / Gamma(nu*r + 1) and places, for each
  row k, a fixed-point grid just below the row's peak term.  Everything
  else is exact Python-integer arithmetic: each term is the integer
  mantissa of its factor times the integer falling factorial, truncated
  onto its row's grid and summed exactly.  The engine stops once the
  geometric tail is within rel_tol (tested in integers) and redoes the
  sum with more digits when the cancellation it measures outruns the
  precision.  The bound is the tail plus a rounding term derived from
  that arithmetic.  ``_sum_series`` also sums the direct time-fractional
  form in ``dist``.

``mittag_leffler`` at nu < 1 is row 0 of this row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import libmp

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)

_EPS = 2.0 ** -52           # machine epsilon of a double
# the series stop rule: past the peak, terms must fall by this ratio or less
_STOP_RATIO = 0.9
# the prescan ends once every row's last term is this many nats below both
# its peak and 1 (and past its hump; see _kernel_profile)
_PRESCAN_DROP = 250.0
# the contour rule (see _contour_rows): half-widths a of the strips whose
# error bounds are compared, and cells per edge integral in _contour_error
_CONTOUR_STRIPS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)
_CONTOUR_CELLS = 64
# bits of each row's summation grid below the working precision, so that
# truncating a term onto the grid errs by 2**-16 of its rounding allowance
_GRID_GUARD_BITS = 16


class NonConvergence(ArithmeticError):
    """Raised when a series fails to meet its tolerance within max_terms."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the series evaluators: the tolerance relative
    to each value, and the most terms a series, or nodes a contour rule,
    may take."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and > 0")
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


def _argument_double(factors) -> float:
    """w = -prod(b**e) over ``factors``, pairs (b, e) with b >= 0, in
    doubles, which size the sums (and are the Poisson mean at nu = 1); a
    ValueError if it overflows.  A product that underflows part-way while
    every base is positive is formed again as exp(sum e*log(b)), so that
    w is 0 only where the exact product is below the subnormal range."""
    w = -math.prod(b ** e for b, e in factors)
    if w == 0.0 and all(b > 0 for b, _ in factors):
        w = -math.exp(math.fsum(e * math.log(b) for b, e in factors))
    if not -math.inf < w <= 0:
        raise ValueError("the series argument -lam**alpha * t**nu must be "
                         "finite and <= 0")
    return w


def _argument(factors):
    """w of ``factors`` as an mpf, formed 64 bits beyond the working
    precision and kept unrounded (see ``_kernel_bases``)."""
    with mp.workprec(mp.mp.prec + 64):
        return -mp.fprod(mp.mpf(b) ** e for b, e in factors)


def _kernel_bases(factors, nu: float):
    """w**r / Gamma(nu*r + 1) for r = 0, 1, ..., in the working precision
    (prec bits), with w = ``_argument(factors)``.

    mpmath forms b**e, 0 < e <= 1, as exp(e*log(b)) with the log 10 bits
    beyond the precision, and |e*log(b)| < 2**10 for a double b: in
    prec + 64 bits each power and the product err by a few units of
    2**-(prec+64), so w is within 2**-(prec+61) of its exact value,
    relatively.  nu*r + 1 is exact in the least working precision (110
    bits) unless nu < ~1e-17, where it lies so close to 1 that its
    rounding moves rgamma by less than two roundings; so base r is within
    r + 4 roundings of its exact value (the power's r - 1, rgamma's and
    the product's) plus r * 2**-61 for w: well within the engine's
    allowance of 3r + 5.
    """
    wmp, num = _argument(factors), mp.mpf(nu)
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


def _to_double(value, bound, terms: int) -> EvalResult:
    """A series value rounded to double, its bound widened by that rounding
    (eps relatively, and ulp(0) for a value below the normal range)."""
    v = float(value)
    return EvalResult(v, float(bound) + _EPS * abs(v) + math.ulp(0.0), terms)


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


def _rule(n: int) -> tuple[float, float]:
    """mu and h of the n-node rule of ``_contour_rows``, in doubles."""
    return math.pi * n / 12, 3.0 / n


def _contour_error(x: float, nu: float, kmax: int, n: int,
                   mu: float | None = None, h: float | None = None
                   ) -> np.ndarray:
    """Natural log of a bound on |T - p_k|, k = 0..kmax, where T is the
    n-node rule with parameters mu and h computed exactly, at rate x, order
    nu; by default those of ``_contour_rows`` (``_rule``).

    In u = v + i*b the integrand g_k(u) = e**s F_k(s) s'(u) / (2*pi*i),
    s = mu*(1 + i*u)**2 = mu*w**2 with w = r + i*v, r = 1 - b, is
    analytic in |b| < 1, where Re w > 0 keeps s off the branch cut, and
    decays like exp(-mu*v**2) there.  Its modulus is

        |g_k| = exp(mu*(r**2 - v**2)) * A * x**k / (pi*|w|*|s**nu + x|**(k+1)),

    A = |s|**nu.  With theta = nu*arg(s), |theta| < nu*pi,
    |s**nu + x|**2 = (A + x*cos(theta))**2 + (x*sin(theta))**2, which falls
    as |theta| grows.  On a cell [v0, v1] of an edge r (v >= 0; |g_k| is
    even in v) the exponential and 1/|w| are largest at v0, A and |theta|
    at v1, and |s**nu + x| is at least its least value over A in
    [A(v0), A(v1)] at theta(v1); the cell's integral is at most its width
    times these.  Past the cells, v >= span, |s**nu + x| >= (A + x) * c,
    c = cos(nu*pi/2), so A / |s**nu + x| <= min(1, A/x) / c.  There
    A/|w| = mu**nu * (r**2 + v**2)**(nu - 1/2) is at most
    mu**nu * (r**2 + span**2)**(nu - 1/2) * v/span, as (r**2 + v**2) /
    (r**2 + span**2) <= (v/span)**2, and the integral of
    exp(mu*(r**2 - v**2)) * v/span over v >= span is
    exp(mu*(r**2 - span**2)) / (2*mu*span): so the tail is that Gaussian
    integral over c*|w(span)|, times min(1, A(span)/x) and
    (x / ((A(span) + x) * c))**k.  A bound without the factor A/x would
    stop falling for x >> A at an absolute floor near e**(-2.1n), far
    above p_0 ~ 1/(x*Gamma(1 - nu)).  That gives M_r, a bound on the
    integral of |g_k| along the edge r.

    Trefethen & Weideman (SIAM Rev. 56, 2014, Thm 5.1; its proof charges
    each edge Im u = +-a its own integral) bound the error of the infinite
    rule by (M_{1+a} + M_{1-a}) / (exp(2*pi*a/h) - 1) for any a < 1; the
    least over the half-widths _CONTOUR_STRIPS is taken.  The nodes cut
    off, |u| > un = n*h (3 by default), add at most
    2*h * sum_{j>n} |g_k(j*h)|, where |g_k(u)| <= exp(mu*(1 - u**2)) *
    rho**k * min(1, A(u)/x) / (pi*u*c**(k+1)), rho = x/(A(un) + x).
    With the factor 1 the terms fall by at least exp(-2*mu*un*h) a node,
    and the sum is
    exp(mu*(1 - un**2)) / expm1(2*mu*un*h) times the rest at un.  With
    A(u)/x, A(u) <= A(un) * (u/un)**2, so the terms times u/un fall by
    at least q = (1 + h/un) * exp(-2*mu*un*h) a node, and the sum is
    exp(mu*(1 - un**2)) * (A(un)/x) * q/(1 - q); the lesser is taken.
    """
    if mu is None:
        mu, h = _rule(n)
    k = np.arange(kmax + 1.0)
    lx = math.log(x)
    lcos = math.log(math.cos(nu * math.pi / 2))
    a = np.array(_CONTOUR_STRIPS)
    r = np.concatenate((1 + a, 1 - a))[:, None]
    span = math.sqrt((60.0 - (kmax + 1) * lcos) / mu)
    grid = np.linspace(0.0, span, _CONTOUR_CELLS + 1)[None, :]
    v0, v1 = grid[:, :-1], grid[:, 1:]
    q0, q1 = r * r + v0 * v0, r * r + v1 * v1
    a0, a1 = (mu * q0) ** nu, (mu * q1) ** nu
    theta = 2 * nu * np.arctan(v1 / r)
    ct, st = np.cos(theta), np.sin(theta)
    am = np.clip(-x * ct, a0, a1)
    lden = np.log(np.hypot(am + x * ct, x * st))
    head = (mu * (r * r - v0 * v0) - 0.5 * np.log(q0) + np.log(a1) - lden
            + math.log(span / _CONTOUR_CELLS))
    lcells = _log_sums(head, lx - lden, kmax)[1]
    r = r[:, 0]
    a_end = (mu * (r * r + span * span)) ** nu
    tail = ((mu * (r * r - span * span) - math.log(2 * mu * span)
             - 0.5 * np.log(r * r + span * span) - lcos
             + np.minimum(0.0, np.log(a_end) - lx))[:, None]
            + (lx - np.log(a_end + x)[:, None] - lcos) * k)
    edge = np.logaddexp(lcells, tail) + math.log(2 / math.pi)
    s = len(_CONTOUR_STRIPS)
    z = 2 * math.pi * a / h         # log(expm1(z)), kept finite
    disc = (np.logaddexp(edge[:s], edge[s:])
            - (z + np.log(-np.expm1(-z)))[:, None]).min(axis=0)
    un = n * h
    a_un = (mu * (1 + un * un)) ** nu
    q = (1 + h / un) * math.exp(-2 * mu * un * h)
    geom = min(-math.log(math.expm1(2 * mu * un * h)),
               math.log(a_un) - lx + math.log(q) - math.log1p(-q))
    cut = (math.log(2 * h / math.pi) + mu * (1 - un * un) - math.log(un)
           + geom - lcos + (lx - math.log(a_un + x) - lcos) * k)
    return np.logaddexp(disc, cut)


def _log_sums(a: np.ndarray, b: np.ndarray, kmax: int):
    """For k = 0..kmax, the natural logs of |sum_i Im exp(a_i + k*b_i)| and
    of sum_i |exp(a_i + k*b_i)|, over the last axis i of arrays a and b
    (complex logs of terms; leading axes are kept, k becomes the last),
    each k scaled by its largest term; in blocks of k that keep each array
    within 2**18 entries."""
    step = max(1, 2 ** 18 // a.size)
    im, ab = [], []
    for lo in range(0, kmax + 1, step):
        t = a[..., None] + b[..., None] * np.arange(lo, min(kmax + 1,
                                                          lo + step))
        top = t.real.max(axis=-2)
        e = np.exp(t - top[..., None, :])
        with np.errstate(divide="ignore"):
            im.append(top + np.log(np.abs(e.imag.sum(axis=-2))))
        ab.append(top + np.log(np.abs(e).sum(axis=-2)))
    return np.concatenate(im, axis=-1), np.concatenate(ab, axis=-1)


def _contour_estimate(x: float, nu: float, kmax: int, n: int, mu: float,
                      h: float):
    """The n-node trapezoidal rule on the parabola s = mu*(1 + i*u)**2 with
    step h, in doubles, to size ``_contour_rows`` only: natural logs of
    |p_k| and of the rule's sum of |terms|, k = 0..kmax."""
    w = 1 + 1j * h * np.arange(n + 1)
    s = mu * w * w
    sn = s ** nu
    lc = s + np.log(2j * sn / w) - np.log(sn + x)
    lc[0] -= _LN2
    lp, lt = _log_sums(lc, math.log(x) - np.log(sn + x), kmax)
    return lp + math.log(h / math.pi), lt + math.log(h / math.pi)


def _contour_rows(kmax: int, factors, x: float, nu: float,
                  cfg: SeriesConfig):
    """p_k for k = 0..kmax, 0 < nu < 1, from the Laplace transform

        int_0^inf e**(-s*t) p_k(t) dt = x**k s**(nu-1) / (s**nu + x)**(k+1)

    at t = 1 and rate x = prod(b**e) of ``factors``, given in doubles as
    ``x`` (p_k(t) at rate x equals p_k(1) at rate x*t**nu), inverted by
    the trapezoidal rule on the parabola s = mu*(1 + i*u)**2 (Weideman &
    Trefethen, Math. Comp. 76, 2007): with h = 3/n, mu = pi*n/12 and nodes u_j = j*h,

        p_k ~ (h/pi) * Im sum'_{j=0..n} c_j * r_j**k,
        c_j = 2i * e**s * s**nu / (w * (s**nu + x)),  r_j = x / (s**nu + x),

    w = 1 + i*u_j, the prime halving j = 0 (the integrand at -u is the
    conjugate of that at u).  So one set of nodes gives the whole row, one
    complex product per node and entry.  Returns (mpf values, mpf bounds,
    n + 1).

    The truncation and discretisation errors are bounded by
    ``_contour_error``, the rounding by ``_contour_sum``.

    Sizing: each |p_k| is estimated by a rule in doubles
    (``_contour_estimate``) on m + 1 nodes, m = 33 and doubled each round
    up to cfg.max_terms, each estimate kept once the double sum cancels
    fewer than 8 digits and that rule's bound (``_contour_error``) is below
    it.  A small m resolves the largest entries, whose sums cancel about
    e**mu; so past m = 33 the estimate keeps mu = pi*33/12 and takes
    h = (3/33)*sqrt(33/m), which refines the step and moves the cut-off
    out, to resolve the smallest without cancelling more.  n starts at the
    least count that could meet rel_tol and grows until the bound of the
    n-node rule meets rel_tol/8 of every estimate.  The estimates only
    size the rule: a wrong one costs time, never correctness.  The
    precision is sized from the ratio of each entry's sum of |terms| at n
    to rel_tol/8 of its estimate, and rounded up to a multiple of 16 bits,
    so that rows at nearby precisions share their cached nodes.

    Raises NonConvergence before any work where the first n exceeds
    cfg.max_terms.  Before any estimate, it raises where no round can
    resolve some entry: a kept estimate lies within e**-1 of its rule and
    above e**-18 of its sum of |terms|, so |p_k| then exceeds e**-18.5 of
    the rule's j = 0 term; and p_k, a mixture of Poisson masses at the
    means x*Y with E[Y**k] = k!/Gamma(nu*k + 1), is at most
    min(max_y e**-y * y**k / k!, x**k / Gamma(nu*k + 1)) <=
    1/sqrt(2*pi*k) (1 at k = 0).  Then it raises where the rounds leave an
    entry unresolved or n would pass cfg.max_terms, and where some entry's
    bound misses rel_tol of its value.
    """
    ltol = math.log(cfg.rel_tol / 8)
    known = np.full(kmax + 1, -np.inf)
    n = max(8, math.ceil(3 / math.pi * (6 - math.log(cfg.rel_tol))))
    where = f"(k<={kmax}, nu={nu}, x={x:.6g})"

    @functools.cache
    def bound(n, mu, h):
        if n > cfg.max_terms:
            raise NonConvergence(f"contour rule needs more than "
                                 f"{cfg.max_terms} nodes {where}")
        return _contour_error(x, nu, kmax, n, mu, h)

    @functools.cache
    def estimate(n, mu, h):
        return _contour_estimate(x, nu, kmax, n, mu, h)

    bound(n, *_rule(n))         # raises at once if n is past the budget
    rounds = []
    m = min(n, 33)
    while m <= cfg.max_terms:
        rounds.append((m, *_rule(m)) if m < 33 else (
            m, math.pi * 33 / 12, 3 / 33 * math.sqrt(33 / m)))
        m *= 2
    # no round resolves an entry whose ceiling lies e**-19 below every
    # round's j = 0 term
    k, lx = np.arange(kmax + 1.0), math.log(x)
    ceiling = np.minimum(-0.5 * np.log(np.maximum(2 * math.pi * k, 1)),
                         k * lx - _lgamma(nu * k + 1))
    lead = np.min([mu + nu * math.log(mu) + math.log(h / math.pi)
                   + (k + 1) * (lx - math.log(mu ** nu + x)) - lx
                   for _, mu, h in rounds], axis=0)
    if np.any(ceiling < lead - 19):
        raise NonConvergence(
            f"contour rule cannot size p_k for k >= "
            f"{np.argmax(ceiling < lead - 19)} within {cfg.max_terms} "
            f"nodes {where}")
    for m, mu, h in rounds:
        lp, lt = estimate(m, mu, h)
        sure = (lp > lt - 18) & (bound(m, mu, h) < lp - 1)
        known[sure] = lp[sure]
        if np.all(known > -np.inf):
            break
    else:
        raise NonConvergence(
            f"contour rule needs more than {cfg.max_terms} nodes {where}")
    last = None
    while True:
        lerr = bound(n, *_rule(n))
        short = np.max(lerr - ltol - known)
        if short <= 0:
            break
        # the shortfall falls by about pi/3 a node; take the rate
        # measured over the last step where there is one
        rate = 1.0 if last is None else min(2.0, max(
            0.3, (last[1] - short) / (n - last[0])))
        last = n, short
        n += max(2, math.ceil(short / rate))
    lt = estimate(n, *_rule(n))[1]
    digits = np.max(lt - known - ltol) / _LN2 + math.log2(n + 2 * kmax + 8)
    prec = 16 * math.ceil(max(64, int(digits) + 16) / 16)
    vals, lbound = _contour_sum(kmax, factors, nu, n, prec, lerr)
    if not np.all(lbound <= math.log(cfg.rel_tol) + _log_mpfs(vals)):
        raise NonConvergence(
            f"contour rule missed rel_tol with {n + 1} nodes {where}")
    return vals, [mp.make_mpf(libmp.mpf_exp(libmp.from_float(b), 53))
                  for b in lbound], n + 1


def _fit(a: int, b: int, e: int, bits: int):
    """(a + i*b) * 2**e as (a', b', e'), a' + i*b' = floor of it times
    2**-e' componentwise, the larger component kept to ``bits`` bits (and
    shifted exactly where it is shorter): within 2**(1.5-bits) of its
    modulus."""
    sh = max(a.bit_length(), b.bit_length()) - bits
    if sh >= 0:
        return a >> sh, b >> sh, e + sh
    return a << -sh, b << -sh, e + sh


def _contour_nodes(factors, nu: float, n: int, prec: int):
    """c_j and r_j of the n-node rule of ``_contour_rows``, j = 0..n, as
    Gaussian integers (a, b, e) with prec bits in the larger component
    (``_fit``), c_0 halved; and eps, a bound on the relative error of each.

    Everything is libmp arithmetic on integers.  u_j = j*h and
    w_j = 1 + i*u_j are exact dyadic numbers, and x = ``_argument`` at
    wp = prec + 32 bits.  Per node, in units of 2**-wp relatively, each
    libmp result errs by less than one unit in its last place, so by 2
    units, and ``_fit`` by 2.83:

    * s**nu = exp(nu*(log(mu) + log(1 + u**2))) * cis(2*nu*atan(u)),
      |s| = mu*(1 + u**2) <= 10*mu, mu > 1 (n >= 4).  The two logs,
      their sum and the product with nu err by at most 6*log|s| units
      absolutely, so the modulus by that plus 2; the angle
      (|theta| < pi) by 4*pi, and cis by that plus 2 for cos_sin and
      1.42 for its fixed point; the product by 2.83.  So s**nu is within
      d = 6*log(mu) + 35 units.
    * s**nu + x is summed exactly and fitted to wp bits: within
      (d + 1)/cos(nu*pi/2) + 2.83 units, as x errs by 2**-61 units and
      |s**nu + x| >= cos(nu*pi/2) * (|s|**nu + x).  w*(s**nu + x) is exact,
      and its reciprocal conj/norm, floored after a shift that leaves it
      more than wp bits, adds one unit.
    * e**s_j comes from products only, wq = wp + G bits wide: E_0 = e**mu,
      E_{j+1} = E_j * D_j with D_0 = exp(-mu*h**2) * cis(2*mu*h) and
      D_{j+1} = D_j * exp(-2*mu*h**2), since s_{j+1} - s_j =
      -mu*(2j+1)*h**2 + 2i*mu*h.  In units of 2**-wq, E_0 errs by 2,
      D_0 by 8.3, each step of D by 4.83 and of E by 2.83 more, so E_j
      by 2 + 11.13*j + 4.83*j*(j-1)/2 <= 2.5*(j+2)**2: with
      2**G >= 4*(n+2)**2, E_j errs by at most one unit of 2**-wp.
    * c_j = 2i * E_j * s**nu / (w*(s**nu + x)), the first product fitted
      to wp bits, and r_j = x*w / (w*(s**nu + x)), the rest exact.

    To first order, c_j and r_j err by at most W = (6*log(mu) + 36) *
    (1 + 1/cos(nu*pi/2)) + 8 units, below 2**-60 of which the higher
    orders lie.  The final fit to prec bits adds 2**(1.5-prec), so each
    is within eps = 2**-prec * (3 + 2**-32 * W) of its exact value.

    s**nu and E_j * s**nu, free of x, come from ``_x_free_nodes``; the
    sum with x, the reciprocal and the two products are formed here.
    """
    wp = prec + 32
    mu, h = _rule(n)
    with mp.workprec(wp):
        _, xm, xe, _ = _argument(factors)._mpf_
    _, hm, he, _ = libmp.from_float(h)
    w0 = 1 << -he                   # w = (w0 + i*w1) * 2**he, he < 0
    cs, rs = [], []
    for j, (sa, sb, se, pa, pb, pe) in enumerate(_x_free_nodes(nu, n, prec)):
        w1 = j * hm
        if xe >= se:
            a, b, e = _fit(sa + (xm << xe - se), sb, se, wp)
        else:
            a, b, e = _fit((sa << se - xe) + xm, sb << se - xe, xe, wp)
        a, b, e = w0 * a - w1 * b, w0 * b + w1 * a, e + he
        sh = wp + max(a.bit_length(), b.bit_length()) + 1
        norm = a * a + b * b
        ra, rb, re = (a << sh) // norm, (-b << sh) // norm, -e - sh
        cs.append(_fit(-2 * (pa * rb + pb * ra), 2 * (pa * ra - pb * rb),
                       pe + re, prec))
        a, b = xm * w0, xm * w1
        rs.append(_fit(a * ra - b * rb, a * rb + b * ra, xe + he + re, prec))
    a, b, e = cs[0]
    cs[0] = a, b, e - 1
    worst = ((6 * math.log(mu) + 36)
             * (1 + 1 / math.cos(nu * math.pi / 2)) + 8)
    return cs, rs, 2.0 ** -prec * (3 + 2.0 ** -32 * worst)


@functools.lru_cache(maxsize=32)
def _x_free_nodes(nu: float, n: int, prec: int):
    """s**nu and e**s * s**nu at the nodes j = 0..n of ``_contour_nodes``,
    as Gaussian integers (sa, sb, se, pa, pb, pe) fitted to prec + 32 bits,
    cached: rows at one order share them, whatever their rate."""
    wp = prec + 32
    wq = wp + 2 * (n + 2).bit_length() + 2
    mu, h = _rule(n)
    fmu, fh, fnu = map(libmp.from_float, (mu, h, nu))
    lmu, two_nu = libmp.mpf_log(fmu, wp), libmp.from_float(2 * nu)
    g = libmp.mpf_neg(libmp.mpf_mul(fmu, libmp.mpf_mul(fh, fh)))
    _, m, ex, _ = libmp.mpf_exp(fmu, wq)
    ea, eb, ee = m, 0, ex
    _, m, ex, _ = libmp.mpf_exp(g, wq)
    cos, sin = libmp.mpf_cos_sin(libmp.mpf_shift(libmp.mpf_mul(fmu, fh), 1),
                                 wq)
    da, db, de = _fit(m * libmp.to_fixed(cos, wq), m * libmp.to_fixed(sin, wq),
                      ex - wq, wq)
    _, qm, qe, _ = libmp.mpf_exp(libmp.mpf_shift(g, 1), wq)
    _, hm, he, _ = fh
    w0 = 1 << -he
    nodes = []
    for j in range(n + 1):
        w1 = j * hm
        u = libmp.from_man_exp(w1, he)
        lw = libmp.mpf_log(libmp.from_man_exp(w0 * w0 + w1 * w1, 2 * he), wp)
        _, m, ex, _ = libmp.mpf_exp(libmp.mpf_mul(
            fnu, libmp.mpf_add(lmu, lw, wp), wp), wp)
        cos, sin = libmp.mpf_cos_sin(libmp.mpf_mul(
            two_nu, libmp.mpf_atan(u, wp), wp), wp)
        sa, sb, se = _fit(m * libmp.to_fixed(cos, wp),
                          m * libmp.to_fixed(sin, wp), ex - wp, wp)
        nodes.append((sa, sb, se) + _fit(ea * sa - eb * sb, ea * sb + eb * sa,
                                         ee + se, wp))
        ea, eb, ee = _fit(ea * da - eb * db, ea * db + eb * da, ee + de, wq)
        da, db, de = _fit(da * qm, db * qm, de + qe, wq)
    return tuple(nodes)


def _log_abs(a: int, b: int, e: int) -> float:
    """Natural log of |a + i*b| * 2**e, to about 2**-58 relatively."""
    sh = max(0, a.bit_length() - 60, b.bit_length() - 60)
    return math.log(math.hypot(a >> sh, b >> sh)) + (e + sh) * _LN2


def _log_mpfs(vals) -> np.ndarray:
    """Natural logs of |v| for mpf v (-inf at 0)."""
    return np.array([_log_abs(v.man, 0, v.exp) if v else -np.inf
                     for v in vals])


def _contour_sum(kmax: int, factors, nu: float, n: int, prec: int,
                 lerr: np.ndarray):
    """The n-node rule of ``_contour_rows`` in prec-bit arithmetic: mpf
    values p_k and the natural log of their bounds, given the logs of the
    truncation and discretisation bounds ``lerr``.

    c_j and r_j come from ``_contour_nodes``, each within eps of its exact
    value (its docstring proves this, the recurrence for e**s included).
    A product is formed exactly and floored back to prec bits in its larger
    component, again within 2**(1.5-prec), so c_j*r_j**k is within
    expm1((k+1)*eps + 3k*2**-prec) of its value.  Every term keeps prec
    bits in its larger component, so a term with unit 2**e exceeds
    2**(e+prec-1).  Row k sums the imaginary parts on the grid 2**g, g 16
    bits below the coarsest unit of its terms, each floored onto it (n + 1
    units of 2**g, below (n + 1) * 2**-(prec+15) of the sum of |terms|),
    and multiplies by h/pi (three roundings: pi, the quotient, the
    product).  So entry k errs by at most its sum of |terms| times the
    first two, plus 4 * 2**-prec * |p_k|.  The bound is twice the sum of
    that and ``lerr``, which also covers the evaluation of the bound in
    doubles.
    """
    h = _rule(n)[1]
    cs, rs, eps = _contour_nodes(factors, nu, n, prec)
    with mp.workprec(prec):
        f = (mp.mpf(h) / mp.pi)._mpf_
    vals = []
    terms = cs
    for k in range(kmax + 1):
        if k:
            nxt = []
            for (a, b, e), (c, d, g) in zip(terms, rs):
                re, im = a * c - b * d, a * d + b * c
                sh = max(re.bit_length(), im.bit_length()) - prec
                if sh > 0:
                    re >>= sh
                    im >>= sh
                    e += sh
                nxt.append((re, im, e + g))
            terms = nxt
        g = max(t[2] for t in terms) - 16
        total = sum(im << e - g if e >= g else im >> g - e
                    for _, im, e in terms)
        vals.append(mp.make_mpf(libmp.mpf_mul(libmp.from_man_exp(total, g),
                                              f, prec, libmp.round_nearest)))
    lc, lr = (np.array([_log_abs(*z) for z in zs]) for zs in (cs, rs))
    labs = _log_sums(lc, lr, kmax)[1] + math.log(h / math.pi)
    k = np.arange(kmax + 1.0)
    unit = 2.0 ** -prec
    lround = labs + np.log(np.expm1((k + 1) * eps + 3 * k * unit)
                           + (n + 1) * 2.0 ** -15 * unit)
    lval = _log_mpfs(vals)
    return vals, _LN2 + np.logaddexp(np.logaddexp(lerr, lround),
                                     lval + math.log(4 * unit))


def mittag_leffler(nu: float, x: float, cfg: SeriesConfig | None = None) -> EvalResult:
    """One-parameter Mittag-Leffler function E_nu(x) on the negative axis.

    E_nu(x) = sum_r x**r / Gamma(nu*r + 1), for 0 < nu <= 1 and x <= 0.

    At nu = 1 the value is exp(x), and x = 0 gives 1 with bound 0.  At
    nu < 1 it is p_0 of the time-fractional row at rate -x,
    ``wright_psi11_weighted_rows(0, ((-x, 1.0),), nu, cfg)[0]``: the contour
    rule, else the series where the contour raises, certified to
    cfg.rel_tol.
    """
    if not 0 < nu <= 1:
        raise ValueError("nu must lie in (0, 1]")
    if not -math.inf < x <= 0:
        raise ValueError("x must be finite and <= 0")
    if nu == 1.0:
        v = math.exp(x)
        return EvalResult(v, _exp_error_bound(v) if x else 0.0, 1)
    return wright_psi11_weighted_rows(0, ((-x, 1.0),), nu, cfg)[0]


def wright_psi11_weighted_rows(kmax: int, factors, time_nu: float,
                               cfg: SeriesConfig | None = None
                               ) -> list[EvalResult]:
    """Rows ((-1)**k / k!) * S_k for k = 0..kmax, 0 < time_nu < 1: the
    time-fractional Poisson masses with lam**alpha * t**nu = -w, given as
    its exact ``factors`` ((lam, alpha), (t, nu)).

    The contour rule (``_contour_rows``) runs first, with at most
    max_terms nodes.  Where it raises NonConvergence, the series
    (``_sum_series``) runs if its magnitude profile (``_kernel_profile``)
    shows that it stops, and the exception propagates if it does not.
    Both certify every entry to rel_tol.  The series divides each S_k by
    the exact k!, rounded once, so rows remain finite doubles even where
    k! alone would overflow.

    Where w is 0 in doubles the row is that of x = -w = 0.  If every base
    is positive, x underflowed, and each mass errs by at most
    1 - E_nu(-x) <= x/Gamma(1 + nu) < 1.2x < ulp(0), so the bounds are
    ulp(0).
    """
    if not 0 < time_nu < 1:
        raise ValueError("time_nu must lie in (0, 1)")
    if kmax < 0:
        raise ValueError("k must be >= 0")
    cfg = cfg or DEFAULT_CONFIG
    w = _argument_double(factors)
    if w == 0.0:
        e = math.ulp(0.0) if all(b > 0 for b, _ in factors) else 0.0
        return [EvalResult(float(k == 0), e, 1) for k in range(kmax + 1)]
    try:
        vals, bounds, terms = _contour_rows(kmax, factors, -w, time_nu, cfg)
    except NonConvergence:
        profile, peaks = _kernel_profile(kmax, w, time_nu, cfg.max_terms)
        if _series_length(profile, cfg.rel_tol) == math.inf:
            raise
    else:
        return [_to_double(v, b, terms) for v, b in zip(vals, bounds)]
    vals, bounds, terms = _sum_series(
        lambda: _kernel_bases(factors, time_nu), peaks, profile, cfg)
    out = []
    sign, fact = 1, 1
    for k in range(kmax + 1):
        if k:
            fact *= k
            sign = -sign
        f = libmp.from_int(fact)
        v = libmp.mpf_div(vals[k]._mpf_, f, 53, libmp.round_nearest)
        b = libmp.mpf_div(bounds[k]._mpf_, f, 53, libmp.round_up)
        out.append(_to_double(sign * libmp.to_float(v),
                              libmp.to_float(b, rnd=libmp.round_up), terms))
    return out
