"""Scalar special functions underlying the fractional Poisson laws.

Every law in ``dist`` is built on the time-fractional row: the masses
p_k(x), k = 0, 1, ..., of the time-fractional Poisson law at t = 1 and
rate x >= 0, with x = lam**alpha * t**nu for the law at time t (at
alpha < 1 ``dist`` composes the row with the Sibuya law, which cancels
nothing).  Each p_k is a mixture of Poisson masses at the means x*Y
(Beghin & Orsingher, EJP 14, 2009), with Laplace transform
x**k s**(nu-1) / (s**nu + x)**(k+1); p_0 is the one-parameter
Mittag-Leffler function E_nu(-x).  The row serves 0 < nu <= 1; at nu = 1
it is the Poisson(x) row, each mass a closed form (``_poisson_mass``).
It takes x as its exact factors and forms it in its working precision,
so its certificates hold at the exact rate.

At nu < 1 one engine computes it, the contour (``_contour_rows``): the
trapezoidal rule on a parabolic Bromwich contour for that transform.
One set of nodes gives the whole row, a complex product per node and
entry, at a modest precision and with no gamma function.  The nodes
(``_contour_nodes``) are libmp and Gaussian-integer arithmetic: e**s by
a product recurrence over the nodes, s**nu from one log, atan, exp and
cos_sin each, the parts free of x cached per order, node count and
precision (``_x_free_nodes``).  Rules in doubles (``_contour_estimate``)
size it, over a ladder of contour parameters mu that reaches deep
entries and orders near 1.  Its bound adds the trapezoidal error from
the strip of analyticity of the integrand, the nodes cut off and the
rounding of the node arithmetic.  It returns a certified row or raises NonConvergence.
``wright_psi11_weighted_rows`` cuts each row where the proven ceiling
p_k <= x**k / Gamma(nu*k + 1) falls below the least subnormal.

``_sum_series`` sums a series exactly in Python integers, with its
bound: the direct time-fractional form in ``dist``, an independent check
of the row, and the Erlang law of its first passage at alpha = 1.  Its
prescan (``_scan_profile``) also sizes the oracle in ``verify``.

``mittag_leffler`` at nu < 1 is entry 0 of this row (at nu = 1, exp).
"""

from __future__ import annotations

import functools
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
# the contour rule (see _contour_rows): half-widths a of the strips whose
# error bounds are compared, and cells per edge integral in _contour_error
_CONTOUR_STRIPS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)
_CONTOUR_CELLS = 64
# bits of the summation grid below the working precision, so that
# truncating a term onto the grid errs by 2**-16 of its rounding allowance
_GRID_GUARD_BITS = 16


class NonConvergence(ArithmeticError):
    """Raised when a series or the contour rule cannot meet its tolerance
    within max_terms terms or nodes."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the evaluators: the tolerance relative to each
    value, and max_terms, the most nodes the contour rule, or terms the
    direct series and the Erlang sums of ``dist``, may take."""

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


def _scan_profile(block, rmax: int, r_concave: float) -> tuple[int, float]:
    """The peak of a series' natural-log term magnitudes, r = 0, 1, ...:
    the first index of the largest term, and that term's log.

    ``block(r)`` maps a float array of term indices to their log
    magnitudes.  The scan runs in doubling blocks (64, 64, 128, ...) up to
    r = rmax and stops early once r > r_concave, past which the log
    magnitude is concave in r, and the last term has fallen by a ratio of
    at most _STOP_RATIO: every later step falls by that much or more, so
    the peak lies behind the scan, and the index and the log are those of
    the full scan.
    """
    rpeak, lpeak = 0, -math.inf
    lo = 0
    while lo <= rmax:
        hi = min(rmax + 1, lo + max(lo, 64))
        lt = block(np.arange(lo, hi, dtype=float))
        lt[~np.isfinite(lt)] = -np.inf
        top = int(np.argmax(lt))
        if lt[top] > lpeak:
            rpeak, lpeak = lo + top, float(lt[top])
        lo = hi
        if (hi - 1 > r_concave and lt.size > 1
                and lt[-1] - lt[-2] <= math.log(_STOP_RATIO)):
            break
    return rpeak, lpeak


def _argument_double(factors) -> float:
    """The rate x = prod(b**e) over ``factors``, pairs (b, e) with b >= 0,
    in doubles, which size the sums (and are the Poisson mean at nu = 1);
    a ValueError if it overflows.  A zero base gives x = 0, whatever the
    other factors.  A product of positive bases that underflows part-way
    is formed again as exp(sum e*log(b)), so that x is 0 only where the
    exact product is below the subnormal range."""
    if any(b == 0 for b, _ in factors):
        return 0.0
    x = math.prod(b ** e for b, e in factors)
    if x == 0.0:
        x = math.exp(math.fsum(e * math.log(b) for b, e in factors))
    if not 0 <= x < math.inf:
        raise ValueError("the rate lam**alpha * t**nu must be finite and "
                         ">= 0")
    return x


def _argument(factors):
    """x of ``factors`` as an mpf, formed 64 bits beyond the working
    precision (prec bits) and kept unrounded.  mpmath forms b**e,
    0 < e <= 1, as exp(e*log(b)) with the log 10 bits beyond the
    precision, and |e*log(b)| < 2**10 for a double b: each power and the
    product err by a few units of 2**-(prec+64), so x is within
    2**-(prec+61) of its exact value, relatively."""
    with mp.workprec(mp.mp.prec + 64):
        return mp.fprod(mp.mpf(b) ** e for b, e in factors)


def _sum_series(bases, rpeak: int, lpeak: float, cfg: SeriesConfig,
                where: str):
    """The sum of a series, sum_r base_r, and its bound: the certified loop
    of the direct form and of the Erlang law in ``dist``.

    ``bases`` is called inside the working precision and returns an
    iterator over base_0, base_1, ... as mpf, each within (3r + 5)
    roundings of its exact value.  ``rpeak`` is the index of the largest
    term and ``lpeak`` the natural log of its magnitude, in doubles
    (``_scan_profile``): lpeak sets the working precision (40 digits above
    the peak term, prec bits) and rpeak the index past which the sum may
    stop.

    The sum is an exact Python integer.  The magnitude of term r,
    +-man*2**exp, is truncated onto the grid 2**E, E set prec +
    _GRID_GUARD_BITS bits below the peak term, and added to the sum and to
    the sum of |terms| in units of 2**E.

    The sum stops after three consecutive terms that fall by a ratio
    q <= _STOP_RATIO and whose geometric tail last*q/(1-q) is within
    rel_tol of |partial sum| + rounding; both tests are made in integers.
    So NonConvergence is raised before any mpmath work when rpeak + 3
    exceeds cfg.max_terms.  The bound is that tail plus the rounding:
    (3R + 2) * 2**-prec times the sum of |terms| for the bases (R terms
    summed), and one grid unit per term for the truncation.  When the sum
    cancels more digits than the precision leaves room for, it is redone
    with more digits (at most twice).

    Returns (sum, bound, terms_used) with mpf sum and bound, both exact
    images of their integers.  Each NonConvergence message ends with
    ``where``, the caller's arguments.
    """
    tol_num, tol_den = cfg.rel_tol.as_integer_ratio()
    q_num, q_den = _STOP_RATIO.as_integer_ratio()
    if rpeak + 3 > cfg.max_terms:
        # the stop rule needs three terms past the peak
        raise NonConvergence(
            f"series needs more than {cfg.max_terms} terms: its terms "
            f"peak at r >= {rpeak} {where}")
    dps = max(32, int(lpeak / _LN10) + 40)
    for _ in range(3):
        with mp.workdps(dps):
            prec = mp.mp.prec
            grid = math.floor(lpeak / _LN2) - prec - _GRID_GUARD_BITS
            total = abssum = last = prev = 0
            terms = bases()
            streak = r = 0
            while True:
                if r > cfg.max_terms:
                    raise NonConvergence(f"series did not converge within "
                                         f"{cfg.max_terms} terms {where}")
                neg, man, exp, _ = next(terms)._mpf_
                sh = exp - grid
                # truncate the magnitude: >> floors negative numbers
                at = man << sh if sh >= 0 else man >> -sh
                total = total - at if neg else total + at
                abssum += at
                prev, last = last, at
                # tail at*q/(1-q) with q = at/prev, against rel_tol
                thr = tol_num * (abs(total) + ((3 * r + 5) * abssum >> prec)
                                 + r + 1)
                ok = (r > rpeak and q_den * at <= q_num * prev
                      and at * at * tol_den <= thr * (prev - at))
                streak = streak + 1 if ok else 0
                if streak >= 3:
                    break
                r += 1
        cancel = (math.log10(abssum) - math.log10(abs(total)) if total
                  else dps)
        worst = int(cancel) + 32 - dps if abssum else 0
        if worst <= 0:
            break
        dps += worst + 8
    n = r + 1
    tail = -(-last * last // (prev - last)) if last else 0
    units = tail + ((3 * n + 2) * (abssum + n) >> prec) + 1 + n
    return (mp.make_mpf(libmp.from_man_exp(total, grid)),
            mp.make_mpf(libmp.from_man_exp(units, grid)), n)


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


def _poisson_mass(mu: float, k: int) -> EvalResult:
    """Poisson(mu) mass at k, bounded through the condition sum of its log.

    mu = 0 is a mean that underflowed (every caller has lam, t > 0): the
    mass at k errs from that of mu = 0 by at most mu < ulp(0)."""
    if mu == 0.0:
        return EvalResult(1.0 if k == 0 else 0.0, math.ulp(0.0), 1)
    lg, lm = math.lgamma(k + 1), math.log(mu)
    p = math.exp(-mu + k * lm - lg)
    return EvalResult(p, _exp_error_bound(p, mu + k * abs(lm) + lg), 1)


def _rule(n: int) -> tuple[float, float]:
    """mu and h of the n-node rule of ``_contour_rows``, in doubles."""
    return math.pi * n / 12, 3.0 / n


def _contour_error(x: float, nu: float, kmax: int, n: int, mu: float,
                   h: float) -> np.ndarray:
    """Natural log of a bound on |T - p_k|, k = 0..kmax, where T is the
    n-node rule with parameters mu and h computed exactly, at rate x, order
    nu.

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
    off, |u| > un = n*h (3 under ``_rule``), add at most
    2*h * sum_{j>n} |g_k(j*h)|, where |g_k(u)| <= exp(mu*(1 - u**2)) *
    rho**k * min(1, A(u)/x) / (pi*u*c**(k+1)), rho = x/(A(un) + x).
    With the factor 1 the terms fall by at least exp(-2*mu*un*h) a node,
    and the sum is
    exp(mu*(1 - un**2)) / expm1(2*mu*un*h) times the rest at un.  With
    A(u)/x, A(u) <= A(un) * (u/un)**2, so the terms times u/un fall by
    at least q = (1 + h/un) * exp(-2*mu*un*h) a node, and the sum is
    exp(mu*(1 - un**2)) * (A(un)/x) * q/(1 - q); the lesser is taken.
    """
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

    Sizing: each |p_k| is estimated by rules in doubles
    (``_contour_estimate``) over a ladder of mu.  At each mu, m starts at
    m0 = round(12*mu/pi) and doubles each round up to cfg.max_terms, with
    h = (3/m0)*sqrt(m0/m), which refines the step and moves the cut-off
    out without cancelling more.  An estimate is kept once the double sum
    cancels fewer than 24 nats (the doubles resolve about 36) and that
    rule's bound (``_contour_error``) is below it.  Refining stops at a
    mu once every open entry's bound lies below its estimate: there
    cancellation, which more nodes do not cure, holds them open.  The
    first mu is pi*33/12, from m = 33 (or from the first n, by ``_rule``,
    where it is smaller); it resolves the largest entries, whose sums
    cancel about e**mu.  Then, while an entry is open, mu is nu*k of the
    first open entry k, where its j = 0 term e**mu * (x/mu**nu)**k is
    least (Weideman & Trefethen pick mu per range of t, this per entry),
    as long as that grows; else the next of 4, 2, 1 and .5, which resolve
    orders near 1, whose p_0 ~ 1/(x*Gamma(1 - nu)) cancels e**mu.

    n starts at the least count that could meet rel_tol and grows until
    the bound of the n-node rule meets rel_tol/8 of every estimate.  The
    estimates only size the rule: a wrong one costs time, never
    correctness.  The precision is sized from the ratio of each entry's
    sum of |terms| at n to rel_tol/8 of its estimate, and rounded up to a
    multiple of 16 bits, so that rows at nearby precisions share their
    cached nodes.

    Raises NonConvergence before any work where the first n exceeds
    cfg.max_terms.  Then it raises where the ladder leaves an entry open
    or n would pass cfg.max_terms, and where some entry's bound misses
    rel_tol of its value.
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
    deep, small = math.pi * 33 / 12, [4.0, 2.0, 1.0, 0.5]
    mu, m0, m = deep, 33, min(n, 33)
    while True:
        while m <= cfg.max_terms:
            key = (m, *_rule(m)) if m < m0 else (
                m, mu, 3 / m0 * math.sqrt(m0 / m))
            lp, lt = estimate(*key)
            lerr = bound(*key)
            sure = (lp > lt - 24) & (lerr < lp - 1)
            known[sure] = lp[sure]
            pending = known == -np.inf
            if np.all(lerr[pending] < lp[pending] - 1):
                break       # cancellation holds the rest: nodes cannot help
            m *= 2
        if np.all(known > -np.inf):
            break
        k0 = int(np.argmax(known == -np.inf))
        if nu * k0 > deep:
            mu = deep = nu * k0
        elif small:
            mu = small.pop(0)
        else:
            raise NonConvergence(
                f"contour rule cannot size p_{k0} within {cfg.max_terms} "
                f"nodes {where}")
        m0 = m = max(1, round(12 * mu / math.pi))
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
    (``_fit``), c_0 halved; and eps in units of 2**-prec, a bound on the
    relative error of each (eps itself underflows in doubles past 1074
    bits).

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
    return cs, rs, 3 + 2.0 ** -32 * worst


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
    doubles.  Past 960 bits, where 2**-prec would underflow, the rounding
    terms are formed with 2**-960 for 2**-prec and their logs lowered by
    s*log(2), s = prec - 960: expm1 is convex and 0 at 0, so expm1(z) <=
    2**-s * expm1(2**s * z).
    """
    h = _rule(n)[1]
    cs, rs, eps_units = _contour_nodes(factors, nu, n, prec)
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
    lift = max(0, prec - 960)
    unit = 2.0 ** (lift - prec)
    lround = labs + np.log(np.expm1((k + 1) * (eps_units * unit)
                                    + 3 * k * unit)
                           + (n + 1) * 2.0 ** -15 * unit) - lift * _LN2
    lval = _log_mpfs(vals)
    return vals, _LN2 + np.logaddexp(np.logaddexp(lerr, lround),
                                     lval + math.log(4 * unit) - lift * _LN2)


def mittag_leffler(nu: float, x: float, cfg: SeriesConfig | None = None) -> EvalResult:
    """One-parameter Mittag-Leffler function E_nu(x) on the negative axis.

    E_nu(x) = sum_r x**r / Gamma(nu*r + 1), for 0 < nu <= 1 and x <= 0.

    At nu = 1 the value is exp(x), and x = 0 gives 1 with bound 0.  At
    nu < 1 it is p_0 of the time-fractional row at rate -x,
    ``wright_psi11_weighted_rows(0, ((-x, 1.0),), nu, cfg)[0]``: the contour
    rule, certified to cfg.rel_tol.
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
    """The time-fractional Poisson masses p_k(x) for k = 0..kmax,
    0 < time_nu <= 1, at the rate x = lam**alpha * t**nu >= 0, given as its
    exact ``factors`` ((lam, alpha), (t, nu)) (``pgf`` adds (1-u, alpha)).

    Where x is 0 in doubles the row is that of x = 0, exact where a base
    is 0.  Else x underflowed, and each mass errs by at most 1 - E_nu(-x)
    <= x/Gamma(1 + nu) < 1.2x < ulp(0), so the bounds are ulp(0).

    At time_nu = 1 the row is Poisson(x), each mass by ``_poisson_mass``.
    Else p_k is a mixture of Poisson masses at the means x*Y, with
    E[Y**k] = k!/Gamma(nu*k + 1) (Beghin & Orsingher, EJP 14, 2009), so
    p_k = E[e**(-x*Y) * (x*Y)**k / k!] is at most
    min(max_y e**-y * y**k / k!, x**k * E[Y**k] / k!) <=
    min(1/sqrt(2*pi*k), x**k / Gamma(nu*k + 1)) (1 at k = 0).  Past the
    last k where the ceiling x**k / Gamma(nu*k + 1), with a nat for the
    rounding of lgamma, reaches ulp(0), each p_k is returned as 0 with
    bound ulp(0); the contour rule (``_contour_rows``) gives the
    entries up to it, each certified to rel_tol.
    """
    if not 0 < time_nu <= 1:
        raise ValueError("time_nu must lie in (0, 1]")
    if kmax < 0:
        raise ValueError("k must be >= 0")
    x = _argument_double(factors)
    if x == 0.0:
        e = math.ulp(0.0) if all(b > 0 for b, _ in factors) else 0.0
        return [EvalResult(float(k == 0), e, 1) for k in range(kmax + 1)]
    if time_nu == 1.0:
        return [_poisson_mass(x, k) for k in range(kmax + 1)]
    cfg = cfg or DEFAULT_CONFIG
    k = np.arange(kmax + 1.0)
    kcut = int(np.flatnonzero(k * math.log(x) - _lgamma(time_nu * k + 1)
                              >= math.log(math.ulp(0.0)) - 1)[-1])
    vals, bounds, terms = _contour_rows(kcut, factors, x, time_nu, cfg)
    return ([_to_double(v, b, terms) for v, b in zip(vals, bounds)]
            + [EvalResult(0.0, math.ulp(0.0), terms)] * (kmax - kcut))
