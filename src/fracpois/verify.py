"""Monte Carlo and analytic verification harness.

Chi-square goodness of fit of sampled counts against the closed-form
PMFs, one min-of-uniforms representation check of the generating function
for every (alpha, nu), the governing-equation residual test, and two
independent references: an extended-precision oracle for the PMF
(deliberately sharing no series code with :mod:`fracpois.special_fn`),
and the renewal construction of the time-fractional process (epochs of
Mittag-Leffler waiting times, the package's only sampler of them),
against which the mixed-Poisson counts of :mod:`fracpois.sample` are
tested.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import dist, frac_ops, sample
from .dist import ProcessParams
from .special_fn import NonConvergence, SeriesConfig, _lgamma, _scan_profile

__all__ = [
    "GofReport", "OracleConfig", "DegenerateBins", "gof_pmf",
    "gof_two_sample", "check_min_uniform_space", "check_ode_residual",
    "oracle_pmf", "write_fixture", "load_fixture", "check_fixture",
    "two_stage", "MinUniformResult", "renewal_batch",
]

REJECT_P = 1e-3          # statistical failure threshold (with two-stage rule)
DEFAULT_FIXTURE = "oracle_pmf.txt"
GOF_KCAP = 30            # gof_pmf bins 0..GOF_KCAP and a tail bin
TWO_SAMPLE_KCAP = 15     # gof_two_sample bins 0..TWO_SAMPLE_KCAP and a tail
FIXTURE_SLACK = 1e-15    # check_fixture's allowance beyond the row bound
SECOND_STAGE_FACTOR = 10  # two_stage re-runs once at this many times n
ORACLE_MAX_TERMS = 100_000  # oracle_pmf raises NonConvergence past this r


class DegenerateBins(ValueError):
    """Fewer than two bins survive expected-count merging."""


@dataclass(frozen=True)
class GofReport:
    statistic: float
    dof: int
    p_value: float
    bins: list  # (label, observed, expected) triples

    @property
    def passed(self) -> bool:
        return self.p_value > REJECT_P


@dataclass(frozen=True)
class OracleConfig:
    precision_digits: int = 40

    def __post_init__(self):
        if self.precision_digits < 30:
            raise ValueError("precision_digits must be >= 30")


@dataclass(frozen=True)
class MinUniformResult:
    empirical: float
    analytic: float
    z_score: float


def _merge_bins(observed, expected, labels, min_expected=5.0):
    """Merge adjacent bins until every expected count reaches the floor."""
    obs, exp, labs = [], [], []
    acc_o = acc_e = 0.0
    lo = None
    for o, e, lab in zip(observed, expected, labels):
        acc_o += o
        acc_e += e
        lo = lab if lo is None else lo
        if acc_e >= min_expected:
            obs.append(acc_o)
            exp.append(acc_e)
            labs.append(lo if lo == lab else f"{lo}-{lab}")
            acc_o = acc_e = 0.0
            lo = None
    if lo is not None:
        if obs:
            # an empty leftover keeps the label, so that a tail bin that
            # nothing reached does not relabel every table
            obs[-1] += acc_o
            exp[-1] += acc_e
            if acc_o or acc_e:
                labs[-1] = f"{labs[-1].split('-')[0]}-{lab}"
        else:
            obs.append(acc_o)
            exp.append(acc_e)
            labs.append(lo)
    if len(obs) < 2:
        raise DegenerateBins("fewer than 2 bins after merging")
    return np.array(obs), np.array(exp), labs


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail Pr{X >= stat} of the chi-square law with dof degrees of
    freedom: the regularized upper incomplete gamma Q(dof/2, stat/2)."""
    return float(mp.gammainc(dof / 2, stat / 2, regularized=True))


def gof_pmf(batch: sample.SampleBatch,
            cfg: SeriesConfig | None = None) -> GofReport:
    """Chi-square test of a sampled batch against the PMF of its law.

    Counts k = 0..GOF_KCAP get individual bins; everything above goes into
    a single tail bin with expected mass 1 - cdf(GOF_KCAP).
    """
    kcap = GOF_KCAP
    n = batch.n
    if n < 10_000:
        raise ValueError("need n >= 10**4 for a meaningful test")
    rows = dist.pmf_row(batch.law, batch.t, kcap, cfg)
    probs = np.clip([r.p for r in rows], 0.0, 1.0)
    tail = max(0.0, 1.0 - probs.sum())
    counts = np.asarray(batch.counts)
    observed = np.bincount(np.minimum(counts, kcap + 1),
                           minlength=kcap + 2).astype(float)
    expected = np.append(probs, tail) * n
    labels = [str(k) for k in range(kcap + 1)] + [f">{kcap}"]
    obs, exp, labs = _merge_bins(observed, expected, labels)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(obs) - 1
    return GofReport(stat, dof, _chi2_sf(stat, dof),
                     list(zip(labs, obs, exp)))


def gof_two_sample(counts_a, counts_b) -> GofReport:
    """Two-sample chi-square homogeneity test on binned counts.

    Bins {0, ..., TWO_SAMPLE_KCAP, > TWO_SAMPLE_KCAP}; adjacent bins merged
    until the pooled count is at least 10 in each.
    """
    kcap = TWO_SAMPLE_KCAP
    counts_a = np.asarray(counts_a)
    counts_b = np.asarray(counts_b)
    na, nb = len(counts_a), len(counts_b)
    oa = np.bincount(np.minimum(counts_a, kcap + 1), minlength=kcap + 2)
    ob = np.bincount(np.minimum(counts_b, kcap + 1), minlength=kcap + 2)
    labels = [str(k) for k in range(kcap + 1)] + [f">{kcap}"]
    pooled = (oa + ob) / (na + nb)
    # expected floor uses the pooled estimate on the smaller sample
    floor_n = min(na, nb)
    obs_a, _, labs = _merge_bins(oa, pooled * floor_n, labels, 10.0)
    obs_b, _, _ = _merge_bins(ob, pooled * floor_n, labels, 10.0)
    tot = obs_a + obs_b
    ea = tot * na / (na + nb)
    eb = tot * nb / (na + nb)
    stat = float((((obs_a - ea) ** 2) / ea + ((obs_b - eb) ** 2) / eb).sum())
    dof = len(obs_a) - 1
    return GofReport(stat, dof, _chi2_sf(stat, dof),
                     list(zip(labs, obs_a, obs_b)))


def check_min_uniform_space(params: ProcessParams, t: float, u: float,
                            n: int, rng: sample.RngStream,
                            cfg: SeriesConfig | None = None
                            ) -> MinUniformResult:
    """Test the PGF G(u, t) as a min-of-uniforms probability.

    G(u, t) = E_nu(-lam**alpha * t**nu * (1-u)**alpha) is the probability
    that min_{k<=N} X_k**(1/alpha) >= 1-u (taken as 1 when N = 0) for
    i.i.d. uniforms X_k and a driving count N, time-fractional of rate
    lam**alpha: Poisson(lam**alpha * t) at nu = 1.  The n counts N are
    ``sample_batch("time", ...)`` of ``rng`` (N = 0 without a draw at
    t = 0), drawn from its child streams; the uniforms V that decide the
    event come from ``rng.generator()`` itself, which the children never
    overlap.  The empirical frequency of the event is compared with
    ``dist.pgf`` under ``cfg``.
    """
    dist._check_time(t)
    if not 0 < u < 1:
        raise ValueError("u must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if t == 0:
        counts = np.zeros(n, dtype=np.int64)
    else:
        driver = ProcessParams(params.lam ** params.alpha, 1.0, params.nu)
        counts = sample.sample_batch("time", driver, t, n, rng).counts
    analytic = dist.pgf(params, t, u, cfg).value
    # the min of N uniforms is 1 - V**(1/N) (inversion), so the event
    # min >= c is log V <= N*log1p(-c); at N = 0 it always holds
    with np.errstate(divide="ignore"):
        logv = np.log(rng.generator().random(n))
    emp = float(np.mean(logv <= counts
                        * math.log1p(-(1.0 - u) ** params.alpha)))
    sigma = math.sqrt(max(analytic * (1.0 - analytic), 1e-300) / n)
    return MinUniformResult(emp, analytic, (emp - analytic) / sigma)


def check_ode_residual(params: ProcessParams, t: float, K: int,
                       cfg: SeriesConfig | None = None) -> float:
    """Max residual of d/dt p_k = -lam**alpha * ((1-B)**alpha p)_k, k <= K.

    The time derivative is a central difference with h = 1e-4 * t.
    """
    if params.nu != 1.0:
        raise ValueError("the governing ODE system applies at nu = 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    dist._check_time(t, strict=True)
    h = 1e-4 * t
    p_mid = np.array([r.p for r in dist.pmf_row(params, t, K, cfg)])
    p_hi = np.array([r.p for r in dist.pmf_row(params, t + h, K, cfg)])
    p_lo = np.array([r.p for r in dist.pmf_row(params, t - h, K, cfg)])
    dpdt = (p_hi - p_lo) / (2.0 * h)
    rhs = -(params.lam ** params.alpha) * frac_ops.apply_frac_difference(
        p_mid, params.alpha)
    return float(np.max(np.abs(dpdt - rhs)))


# ---------------------------------------------------------------------------
# independent renewal construction of the time-fractional process

def _ml_waiting_times(nu: float, rate: float, size: int,
                      gen: np.random.Generator):
    """Waiting times T with Pr{T > t} = E_nu(-rate * t**nu).

    Mixture representation T = (E**(1/nu) * S_nu) / rate**(1/nu) with E
    unit exponential and S_nu one-sided stable, formed in logs from
    log S_nu; exponential at nu = 1.
    """
    if nu == 1.0:
        return gen.exponential(1.0 / rate, size), 0
    e = gen.standard_exponential(size)
    log_s, redraws = sample._log_stable(nu, size, gen)
    with np.errstate(divide="ignore", over="ignore"):
        log_w = np.log(e, out=e)
        log_w -= math.log(rate)
        log_w *= 1.0 / nu
        log_w += log_s
        return np.exp(log_w, out=log_w), redraws


def renewal_batch(params: ProcessParams, t: float, n: int,
                  rng: sample.RngStream) -> sample.SampleBatch:
    """n time-fractional counts N_nu(t) by the renewal construction.

    Each count is the number of epochs of i.i.d. Mittag-Leffler waiting
    times of rate lam within [0, t], drawn round after round until every
    realization has passed t.  The reference that the mixed-Poisson
    counts of ``sample_batch("time", ...)`` are tested against.
    """
    if params.alpha != 1.0:
        raise ValueError("the renewal construction requires alpha = 1")
    dist._check_time(t, strict=True)
    gen = rng.generator()
    counts = np.zeros(n, dtype=np.int64)
    elapsed = np.zeros(n)
    active = np.arange(n)
    redraws = 0
    while active.size:
        w, rd = _ml_waiting_times(params.nu, params.lam, active.size, gen)
        redraws += rd
        elapsed[active] += w
        within = elapsed[active] <= t
        counts[active[within]] += 1
        active = active[within]
    return sample.SampleBatch(counts=counts, params=params, t=t,
                              seed=rng.seed, n=n, stream_id=rng.stream_id,
                              redraws=redraws)


# ---------------------------------------------------------------------------
# independent extended-precision oracle

def oracle_pmf(params: ProcessParams, t: float, k: int,
               ocfg: OracleConfig | None = None,
               _gamma_cache: dict | None = None) -> mp.mpf:
    """Reference PMF value by direct arbitrary-precision summation.

    Terms are built from gamma-function quotients (reciprocal gamma at
    the poles), sharing no summation code with the contour of special_fn
    or the direct series of dist.  Past the peak the term ratios q
    shrink, so the sum stops after three terms whose geometric tail
    last*q/(1-q) is within the tolerance.

    The working precision comes from the peak of the term magnitudes in
    doubles over r <= 50_000, found by a scan in doubling blocks
    (``special_fn._scan_profile``): past r = k/alpha + 2 the log
    magnitudes are concave in r, so the scan stops there once the terms
    fall by the stop ratio, with the argmax and maximum of the full
    scan.

    The precision is sized for an absolute accuracy of about
    10**-(precision_digits+10).  The sum then measures the digits it lost
    to cancellation, log10 of its largest |term| over |sum|, and is redone
    with enough digits for that loss (twice the digits when it resolved
    none), and with its stop tolerance relative to |sum| alone, until
    precision_digits + 5 digits of the value are resolved: the
    result is accurate to about 10**-precision_digits relative, however
    small the mass.  NonConvergence is raised after four such
    escalations.
    """
    ocfg = ocfg or OracleConfig()
    if k < 0:
        raise ValueError("k must be >= 0")
    dist._check_time(t)
    if t == 0.0:
        return mp.mpf(1 if k == 0 else 0)
    alpha, nu = params.alpha, params.nu
    # size precision from the peak of the term magnitudes in doubles
    logx = math.log(params.lam ** alpha * t ** nu)

    def block(r):
        lt = r * logx - _lgamma(nu * r + 1.0) + _lgamma(alpha * r + 1.0)
        zk = alpha * r + 1.0 - k
        # |1/Gamma(z)| <= Gamma(1-z) for z <= 0 via reflection (|sin| <= 1)
        lt += np.where(zk > 0, -_lgamma(np.maximum(zk, 1e-300)),
                       _lgamma(np.maximum(1.0 - zk, 1.0)))
        return lt

    rpeak, lpeak = _scan_profile(block, 50_000, k / alpha + 2)
    dps = max(ocfg.precision_digits + 10,
              int(lpeak / math.log(10)) + ocfg.precision_digits + 10)

    cache = _gamma_cache if _gamma_cache is not None else {}
    digits = ocfg.precision_digits
    relative = False
    for _ in range(5):
        with mp.workdps(dps):
            s, big = _oracle_sum(params, t, k, dps, rpeak, relative, ocfg,
                                 cache)
            lost = mp.log10(big / abs(s)) if s else dps
            if dps - lost >= digits + 5 and (
                    relative or abs(s) >= mp.mpf(10) ** (-digits - 5)):
                return (-1) ** k / mp.factorial(k) * s
        # with under three digits resolved, |s| is noise: double instead
        dps = int(lost) + digits + 15 if dps - lost >= 3 else 2 * dps
        relative = True
    raise NonConvergence(
        f"oracle sum cancels more than {dps} digits (k={k}, t={t})")


def _oracle_sum(params, t, k, dps, rpeak, relative, ocfg, cache):
    """The oracle's alternating sum in the working precision, and its
    largest |term|; it stops on a tail within tol = 10**-(precision_digits
    + 5) of |partial sum|, plus tol unless ``relative``."""
    alpha, nu = params.alpha, params.nu
    # gamma arguments built in working precision: forming alpha*r in
    # doubles injects incoherent per-term argument noise that the
    # alternating sum amplifies well past the target accuracy
    a_mp, nu_mp = mp.mpf(alpha), mp.mpf(nu)

    def gam(key, x):
        v = cache.get(key)
        if v is None:
            v = mp.gamma(x)
            cache[key] = v
        return v

    def rgam(key, x):
        v = cache.get(key)
        if v is None:
            v = mp.rgamma(x)
            cache[key] = v
        return v

    w = mp.mpf(params.lam) ** alpha * mp.mpf(t) ** nu * -1
    s = big = mp.mpf(0)
    wpow = mp.mpf(1)
    last = mp.inf
    small_streak = 0
    r = 0
    tol = mp.mpf(10) ** (-ocfg.precision_digits - 5)
    floor = 0 if relative else tol
    while True:
        if r > ORACLE_MAX_TERMS:
            raise NonConvergence("oracle series exceeded max_terms")
        term = (wpow
                * rgam(("n", nu, r, dps), nu_mp * r + 1)
                * gam(("g", alpha, r, dps), a_mp * r + 1)
                * rgam(("r", alpha, r, k, dps), a_mp * r + 1 - k))
        s += term
        at = abs(term)
        big = max(big, at)
        # exact zeros (falling-factorial roots, r < k at alpha = 1)
        # carry no tail information and must not feed the stop rule
        if at > 0:
            # geometric tail at*q/(1-q), q = at/last, within tol
            if (r > rpeak and r > k and at < last
                    and at * at <= tol * (abs(s) + floor) * (last - at)):
                small_streak += 1
                if small_streak >= 3:
                    return s, big
            else:
                small_streak = 0
            last = at
        wpow *= w
        r += 1


_FIXTURE_GRID_NOTE = "alpha nu lambda t k value"


def write_fixture(path, records, ocfg: OracleConfig, meta: str = ""):
    """Write oracle reference values to the plain-text fixture format.

    One row per record: alpha nu lambda t k value(25 digits), whitespace
    separated, '#' comments.
    """
    ocfg = ocfg or OracleConfig()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# oracle PMF reference table\n")
        fh.write(f"# columns: {_FIXTURE_GRID_NOTE}\n")
        fh.write(f"# precision_digits={ocfg.precision_digits} "
                 f"max_terms={ORACLE_MAX_TERMS}\n")
        if meta:
            fh.write(f"# {meta}\n")
        cache: dict = {}
        for alpha, nu, lam, t, k in records:
            v = oracle_pmf(ProcessParams(lam, alpha, nu), t, k, ocfg,
                           _gamma_cache=cache)
            vs = mp.nstr(v, 25, strip_zeros=False)
            fh.write(f"{alpha} {nu} {lam} {t} {k} {vs}\n")


def load_fixture(path=None):
    """Parse the fixture table into (alpha, nu, lam, t, k, value) tuples."""
    if path is None:
        ref = importlib.resources.files("fracpois") / "data" / DEFAULT_FIXTURE
        text = ref.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        a, nu, lam, t, k, v = line.split()
        rows.append((float(a), float(nu), float(lam), float(t), int(k),
                     float(v)))
    return rows


def check_fixture(path=None, cfg: SeriesConfig | None = None):
    """Compare dist.pmf against every fixture row.

    FIXTURE_SLACK absorbs the double rounding of both the parsed fixture
    value and the computed PMF on top of the certified series bound.
    Returns (all_ok, failures) where each failure is (row, value, bound).
    """
    failures = []
    rows = load_fixture(path)
    by_combo: dict = {}
    for a, nu, lam, t, k, v in rows:
        by_combo.setdefault((a, nu, lam, t), []).append((k, v))
    for (a, nu, lam, t), kvs in by_combo.items():
        kmax = max(k for k, _ in kvs)
        got = dist.pmf_row(ProcessParams(lam, a, nu), t, kmax, cfg)
        for k, v in kvs:
            if abs(got[k].p - v) > got[k].abs_error_bound + FIXTURE_SLACK:
                failures.append(((a, nu, lam, t, k, v), got[k].p,
                                 got[k].abs_error_bound))
    return not failures, failures


def two_stage(run, n: int):
    """Statistical two-stage rule: one re-run at SECOND_STAGE_FACTOR * n
    before failing.

    ``run(n, attempt)`` returns (passed, payload); the second attempt is
    made only when the first fails.
    """
    passed, payload = run(n, 0)
    if passed:
        return True, payload
    return run(SECOND_STAGE_FACTOR * n, 1)
