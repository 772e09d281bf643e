"""Exact stochastic samplers for the fractional Poisson processes.

Every process of the package counts as a Poisson variable with a random
mean: N(t) = Poisson(lam * T), where the mixing time T is the random
operational time at which a rate-lam Poisson process is read off.  With
S_g a one-sided g-stable variable (Laplace transform exp(-z**g)):

* space-fractional:  T = t**(1/alpha) * S_alpha;
* time-fractional:   T = L_nu(t) = t**nu * S_nu**-nu, the inverse
  nu-stable subordinator (Meerschaert, Nane & Vellaisamy, EJP 16, 2011);
* space-time:        T = L_nu(t)**(1/alpha) * S_alpha;
* composed:          T = (t**(1/gamma) * S_gamma)**(1/alpha) * S_alpha.

So one count path, ``_mixed_poisson_counts``, draws every process: one
stable draw per subordinator and one Poisson draw per count.  The clock
lives in log space: ``_log_stable`` returns log S_g by Kanter's formula in
logs, with each sine formed from the tangent of its half angle, and log T
is a sum of scaled stable logs plus log t, so a heavy-tailed clock never
overflows and no draw is rejected for its size.  One exp gives the mean
lam * T; a count beyond 2**62, or a mean beyond numpy's Poisson limit,
gives 2**62, and ``SampleBatch.capped`` counts them.  The random source
is counter-based (Philox) and seeded.  ``sample_batch`` is the
only entry point; a single count is a batch of n = 1.  It draws fixed-size
chunks from child streams on a thread per CPU that the process may run on
(numpy releases the GIL in these draws), so its counts are the same for
any thread count.  The renewal construction of the time-fractional
process (epochs of Mittag-Leffler waiting times) is kept in
:mod:`fracpois.verify` as the independent reference these counts are
tested against.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
# numpy loads its random module lazily: load it with this module, not in
# the first draw
import numpy.random  # noqa: F401

from .dist import ProcessParams, _check_time

__all__ = ["RngStream", "SampleBatch", "sample_batch"]

# numpy's poisson sampler rejects means above int64 max - 10 * sqrt(int64
# max); counts beyond the cap are astronomically larger than any analysis
# bin and are clamped.
_POISSON_MEAN_LIMIT = (float(np.iinfo(np.int64).max)
                       - 10.0 * math.sqrt(np.iinfo(np.int64).max))
_COUNT_CAP = 1 << 62
# a child index is one digit of this many bits in the jump count; Philox
# jumps count blocks of 2**128 draws in a 2**256 counter, so paths of
# child indices nest four levels deep
_CHILD_BITS = 32


@dataclass(frozen=True)
class RngStream:
    """Seeded, splittable random source.

    Identical (seed, stream_id) always reproduces identical draws;
    distinct stream_ids are distinct Philox keys, so statistically
    independent streams.  seed and stream_id are the two 64-bit halves of
    the key, so each must lie in [0, 2**64).  ``substream`` counts jumps of
    2**128 draws along the key's counter; it is set by ``child``.
    """

    seed: int
    stream_id: int = 0
    substream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            if not 0 <= getattr(self, name) < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        key = self.seed | (self.stream_id << 64)
        bits = np.random.Philox(key=key)
        if self.substream:
            bits = bits.jumped(self.substream)
        return np.random.Generator(bits)

    def child(self, index: int) -> "RngStream":
        """Derived stream for worker fan-out, 0 <= index < 2**32 - 1.

        Same Philox key, counter jumped past the parent's own draws: each
        path of child indices (up to four levels) has its own jump count,
        so children never overlap their parent, each other or another
        stream id.
        """
        if not 0 <= index < (1 << _CHILD_BITS) - 1:
            raise ValueError("child index must lie in [0, 2**32 - 1)")
        sub = (self.substream << _CHILD_BITS) | (index + 1)
        if sub >> 4 * _CHILD_BITS:
            raise ValueError("child streams nest at most four levels deep")
        return RngStream(self.seed, self.stream_id, sub)


@dataclass(frozen=True)
class SampleBatch:
    """Counts from n independent realizations plus their provenance."""

    counts: np.ndarray
    params: ProcessParams
    t: float
    seed: int
    n: int
    stream_id: int = 0
    redraws: int = field(default=0, compare=False)
    gamma: float | None = None     # stable-clock order of a composed batch

    def __post_init__(self):
        if len(self.counts) != self.n:
            raise ValueError("counts length must equal n")

    @property
    def capped(self) -> int:
        """Number of counts clamped to the cap 2**62."""
        return int(np.count_nonzero(self.counts == _COUNT_CAP))

    @property
    def law(self) -> ProcessParams:
        """Parameters of the PMF the counts follow.

        A composed batch (the alpha-process on a gamma-stable clock) follows
        the space law of order alpha * gamma.
        """
        if self.gamma is None:
            return self.params
        return ProcessParams(self.params.lam, self.params.alpha * self.gamma)


def _poisson_counts(mu, n: int, gen: np.random.Generator) -> np.ndarray:
    """n Poisson counts of mean mu, one scalar or an array of n means.

    Counts are clamped to _COUNT_CAP; means above _POISSON_MEAN_LIMIT,
    which numpy refuses, give _COUNT_CAP without a draw.  Otherwise mu goes
    to numpy as it is: its scalar-mean sampler is faster than the array
    one.
    """
    big = np.broadcast_to(mu > _POISSON_MEAN_LIMIT, (n,))
    if not big.any():
        counts = gen.poisson(mu, n)
    else:
        counts = np.full(n, _COUNT_CAP, dtype=np.int64)
        ok = ~big
        counts[ok] = gen.poisson(np.broadcast_to(mu, (n,))[ok])
    return np.minimum(counts, _COUNT_CAP, out=counts)


def _check_order(g: float, name: str) -> None:
    """A stable order must lie in (0, 1) with 1/g finite: below about
    5.6e-309 (subnormal doubles) 1/g overflows, so every log S of
    ``_log_stable`` would be non-finite and drawn again forever."""
    if not 0 < g < 1 or math.isinf(1.0 / g):
        raise ValueError(f"{name} must lie in (0, 1), with 1/{name} finite")


def _log_stable(gamma: float, size: int, gen: np.random.Generator):
    """log S for one-sided stable draws S with E[exp(-z*S)] = exp(-z**gamma).

    Kanter's exact representation in logs, with theta = pi*u, u uniform and
    E unit exponential:

        log S = log sin(gamma*theta) - log sin(theta) / gamma
                + (1 - gamma) / gamma * (log sin((1 - gamma)*theta) - log E).

    Each sine is 2*h/(1 + h**2) with h the tangent of the half angle (numpy
    2.4's float64 tan and log are SIMD-vectorised, its sin is not); the
    three factors 2 cancel, as the coefficients 1 - 1/gamma
    + (1 - gamma)/gamma sum to 0.
    Nothing overflows, so no draw is rejected: only u = 0 or E = 0 give a
    non-finite log S, and those entries are drawn again, with the redraw
    count returned for diagnostics.  An order whose 1/gamma overflows is
    a ValueError.
    """
    _check_order(gamma, "gamma")

    def log_half_sine(h, tmp, e=None):
        """log(sin(2*h) / (2*e)), e = 1 unless given, in place in h; tmp
        is scratch.  With t = tan(h), sin(2*h)/2 = t/(1 + t**2)."""
        np.tan(h, out=h)
        np.square(h, out=tmp)
        tmp += 1.0
        if e is not None:
            tmp *= e
        np.divide(h, tmp, out=h)
        return np.log(h, out=h)

    def draw(m: int):
        u = gen.random(m)
        e = gen.standard_exponential(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            u *= 0.5 * math.pi                      # theta/2
            tmp = np.empty(m)
            out = log_half_sine(u * (1.0 - gamma), tmp, e)
            out *= (1.0 - gamma) / gamma
            out += log_half_sine(np.multiply(u, gamma, out=tmp), e)
            out -= np.divide(log_half_sine(u, e), gamma, out=u)
        return out

    # the first round is the output; non-finite entries are drawn again
    out = draw(size)
    todo = np.flatnonzero(~np.isfinite(out))
    redraws = 0
    while todo.size:
        redraws += todo.size
        s = draw(todo.size)
        out[todo] = s
        todo = todo[~np.isfinite(s)]
    return out, redraws


def _mixed_poisson_counts(lam: float, alpha: float, nu: float, t: float,
                          n: int, gen: np.random.Generator,
                          gamma: float | None = None):
    """n counts Poisson(lam * T) with T the mixing time of the process.

    The operational time is the gamma-stable clock t**(1/gamma) * S_gamma
    when gamma is given (the composed process, at nu = 1), else L_nu(t) =
    t**nu * S_nu**-nu, which is t at nu = 1.  For alpha < 1 the
    alpha-stable subordinator runs on that clock: T = clock**(1/alpha) *
    S_alpha.  log T is built from the stable logs by adds and scalings,
    and mu = lam * T takes one exp, so nothing overflows before
    ``_poisson_counts`` caps the count.  Returns (counts, stable redraws).
    """
    if gamma is None and nu == 1.0 and alpha == 1.0:
        return _poisson_counts(lam * t, n, gen), 0
    # log_mu holds log(clock) / alpha until S_alpha and lam join it
    log_t, redraws = math.log(t), 0
    if gamma is not None:
        log_mu, redraws = _log_stable(gamma, n, gen)
        log_mu += log_t / gamma
        log_mu *= 1.0 / alpha
    elif nu != 1.0:
        log_mu, redraws = _log_stable(nu, n, gen)
        log_mu -= log_t
        log_mu *= -nu / alpha
    else:
        log_mu = log_t / alpha
    if alpha != 1.0:
        s, rd = _log_stable(alpha, n, gen)
        redraws += rd
        s += log_mu
        log_mu = s
    log_mu += math.log(lam)
    with np.errstate(over="ignore"):
        mu = np.exp(log_mu, out=log_mu)
    return _poisson_counts(mu, n, gen), redraws


_PROCESSES = ("space", "time", "space-time", "composed")
_CHUNK = 1 << 16


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_batch(process: str, params: ProcessParams, t: float, n: int,
                 rng: RngStream, gamma: float | None = None,
                 threads: int | None = None) -> SampleBatch:
    """Batch of n counts from the named process.

    Work is split into chunks of _CHUNK counts, chunk i drawn from
    ``rng.child(i)``, so the output is bit-identical for any thread count.
    The chunks run on min(threads, chunks, usable CPUs) threads; ``threads``
    defaults to the CPUs this process may run on.  Every stable order the
    process draws at is checked (``_check_order``) before any thread
    starts.
    """
    if process not in _PROCESSES:
        raise ValueError(f"unknown process {process!r}; expected one of "
                         f"{_PROCESSES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_time(t, strict=True)
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    if process == "composed":
        if gamma is None:
            raise ValueError("the composed process requires gamma")
        _check_order(gamma, "gamma")
    elif gamma is not None:
        raise ValueError("gamma applies only to the composed process")
    if process in ("space", "composed") and params.nu != 1.0:
        raise ValueError(f"the {process} process requires nu = 1")
    if process == "time" and params.alpha != 1.0:
        raise ValueError("the time process requires alpha = 1")
    if params.alpha < 1:
        _check_order(params.alpha, "alpha")
    if params.nu < 1:
        _check_order(params.nu, "nu")

    def run_chunk(idx: int) -> tuple[np.ndarray, int]:
        lo = idx * _CHUNK
        return _mixed_poisson_counts(params.lam, params.alpha, params.nu, t,
                                     min(_CHUNK, n - lo),
                                     rng.child(idx).generator(), gamma)

    nchunks = (n + _CHUNK - 1) // _CHUNK
    workers = min(threads or nchunks, nchunks, _usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, range(nchunks)))
    else:
        results = [run_chunk(i) for i in range(nchunks)]
    counts = np.concatenate([c for c, _ in results])
    redraws = sum(r for _, r in results)
    return SampleBatch(counts=counts, params=params, t=t, seed=rng.seed,
                       n=n, stream_id=rng.stream_id, redraws=redraws,
                       gamma=gamma)
