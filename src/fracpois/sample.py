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
stable draw per subordinator and one Poisson draw per count.  Its other
building blocks are a counter-based (Philox) seeded random source and the
Chambers-Mallows-Stuck/Kanter sampler for S_g.  ``sample_batch`` is the
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
_OVERFLOW_LIMIT = 1e300
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


def _stable_unit(gamma: float, size: int, gen: np.random.Generator):
    """One-sided stable draws S with E[exp(-z*S)] = exp(-z**gamma).

    Kanter's exact representation; draws above 1e300 (or non-finite
    intermediates) are rejected and redrawn, with the redraw count
    returned for diagnostics.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")

    def draw(m: int):
        u = gen.random(m)
        e = gen.standard_exponential(m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = (np.sin(gamma * math.pi * u)
                 / np.sin(math.pi * u) ** (1.0 / gamma)
                 * (np.sin((1.0 - gamma) * math.pi * u) / e)
                 ** ((1.0 - gamma) / gamma))
        # NaN fails both comparisons, and inf the second
        return s, ~((s > 0.0) & (s <= _OVERFLOW_LIMIT))

    # the first round is the output; rejected entries are drawn again
    out, bad = draw(size)
    todo = np.flatnonzero(bad)
    redraws = 0
    while todo.size:
        redraws += todo.size
        s, bad = draw(todo.size)
        out[todo] = s
        todo = todo[bad]
    return out, redraws


def _mixed_poisson_counts(lam: float, alpha: float, nu: float, t: float,
                          n: int, gen: np.random.Generator,
                          gamma: float | None = None):
    """n counts Poisson(lam * T) with T the mixing time of the process.

    The operational time is the gamma-stable clock t**(1/gamma) * S_gamma
    when gamma is given (nu is then unused), else the inverse nu-stable
    time L_nu(t) = t**nu * S_nu**-nu, which is t at nu = 1.  For alpha < 1
    the alpha-stable subordinator runs on that clock: T = clock**(1/alpha)
    * S_alpha.  Returns (counts, stable redraws).
    """
    clock, redraws = t, 0
    with np.errstate(over="ignore"):
        if gamma is not None:
            s, redraws = _stable_unit(gamma, n, gen)
            # a numpy scalar power overflows to inf, capped below; the
            # float power would raise
            clock = np.float64(t) ** (1.0 / gamma) * s
        elif nu != 1.0:
            s, redraws = _stable_unit(nu, n, gen)
            clock = t ** nu * s ** -nu
        if alpha != 1.0:
            s, rd = _stable_unit(alpha, n, gen)
            redraws += rd
            clock = np.minimum(clock ** (1.0 / alpha) * s, _OVERFLOW_LIMIT)
        mu = lam * clock
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
    The chunks run on min(threads, chunks) threads; ``threads`` defaults to
    the CPUs this process may run on.
    """
    if process not in _PROCESSES:
        raise ValueError(f"unknown process {process!r}; expected one of "
                         f"{_PROCESSES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_time(t, strict=True)
    if threads is None:
        threads = _usable_cpus()
    elif threads < 1:
        raise ValueError("threads must be >= 1")
    if process == "composed":
        if gamma is None:
            raise ValueError("the composed process requires gamma")
        if not 0 < gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
    elif gamma is not None:
        raise ValueError("gamma applies only to the composed process")
    if process == "space" and params.nu != 1.0:
        raise ValueError("the space process requires nu = 1")
    if process == "time" and params.alpha != 1.0:
        raise ValueError("the time process requires alpha = 1")

    def run_chunk(idx: int) -> tuple[np.ndarray, int]:
        lo = idx * _CHUNK
        return _mixed_poisson_counts(params.lam, params.alpha, params.nu, t,
                                     min(_CHUNK, n - lo),
                                     rng.child(idx).generator(), gamma)

    nchunks = (n + _CHUNK - 1) // _CHUNK
    workers = min(threads, nchunks)
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
