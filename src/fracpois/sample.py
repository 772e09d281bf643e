"""Exact stochastic samplers for the fractional Poisson processes.

Building blocks: a counter-based (Philox) seeded random source, the
Chambers-Mallows-Stuck/Kanter sampler for the one-sided stable
subordinator, Mittag-Leffler renewal waiting times, and the subordinated
compositions realizing the space-, time- and space-time fractional
counting processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dist import ProcessParams

__all__ = [
    "RngStream", "SampleBatch", "sample_poisson", "sample_stable_subordinator",
    "sample_space_fractional", "sample_composed_subordination",
    "sample_ml_waiting_time", "sample_time_fractional", "sample_space_time",
    "sample_batch",
]

_MASK64 = (1 << 64) - 1
# numpy's poisson sampler rejects means near 2**63; counts beyond the cap
# are astronomically larger than any analysis bin and are clamped.
_POISSON_MEAN_LIMIT = 4.0e18
_COUNT_CAP = 1 << 62
_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class RngStream:
    """Seeded, splittable random source.

    Identical (seed, stream_id) always reproduces identical draws;
    distinct stream_ids index statistically independent Philox streams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived stream for worker fan-out; index must be unique."""
        return RngStream(self.seed,
                         ((self.stream_id + 1) << 20) + index & _MASK64)


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


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def _poisson_counts(mu: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    out = np.empty(mu.shape, dtype=np.int64)
    big = mu >= _POISSON_MEAN_LIMIT
    if big.any():
        out[big] = _COUNT_CAP
    ok = ~big
    out[ok] = gen.poisson(mu[ok])
    return out


def _stable_unit(gamma: float, size: int, gen: np.random.Generator):
    """One-sided stable draws S with E[exp(-z*S)] = exp(-z**gamma).

    Kanter's exact representation; draws above 1e300 (or non-finite
    intermediates) are rejected and redrawn, with the redraw count
    returned for diagnostics.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    out = np.empty(size)
    todo = np.arange(size)
    redraws = 0
    while todo.size:
        u = gen.random(todo.size)
        e = gen.standard_exponential(todo.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = (np.sin(gamma * math.pi * u)
                 / np.sin(math.pi * u) ** (1.0 / gamma)
                 * (np.sin((1.0 - gamma) * math.pi * u) / e)
                 ** ((1.0 - gamma) / gamma))
        good = np.isfinite(s) & (s > 0.0) & (s <= _OVERFLOW_LIMIT)
        out[todo[good]] = s[good]
        redraws += int(todo.size - good.sum())
        todo = todo[~good]
    return out, redraws


def sample_poisson(mean: float, rng) -> int:
    """One Poisson draw with the given mean (exact sampler)."""
    if not mean >= 0 or not math.isfinite(mean):
        raise ValueError("mean must be finite and >= 0")
    return int(_poisson_counts(np.array([mean]), _as_generator(rng))[0])


def sample_stable_subordinator(gamma: float, t: float, rng) -> float:
    """One draw of S_gamma(t), with Laplace transform exp(-t*z**gamma)."""
    if not t > 0:
        raise ValueError("t must be > 0")
    gen = _as_generator(rng)
    s, _ = _stable_unit(gamma, 1, gen)
    return float(t ** (1.0 / gamma) * s[0])


def _space_fractional_counts(lam: float, alpha: float, t, n: int,
                             gen: np.random.Generator):
    """Counts of N_alpha at (possibly per-trial random) times t."""
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    if alpha == 1.0:
        return _poisson_counts(lam * t, gen), 0
    s, redraws = _stable_unit(alpha, n, gen)
    with np.errstate(over="ignore"):
        mu = lam * np.minimum(t ** (1.0 / alpha) * s, _OVERFLOW_LIMIT)
    return _poisson_counts(mu, gen), redraws


def sample_space_fractional(params: ProcessParams, t: float, rng) -> int:
    """One draw of the space-fractional process N_alpha(t) (nu = 1).

    Realized through the subordinated form: a Poisson count with random
    mean lam * S_alpha(t) for alpha < 1, plain Poisson(lam*t) at alpha=1.
    """
    if params.nu != 1.0:
        raise ValueError("space-fractional sampler requires nu = 1")
    if not t > 0:
        raise ValueError("t must be > 0")
    counts, _ = _space_fractional_counts(params.lam, params.alpha, t, 1,
                                         _as_generator(rng))
    return int(counts[0])


def sample_composed_subordination(alpha: float, gamma: float, lam: float,
                                  t: float, rng) -> int:
    """One draw of N_alpha evaluated at an independent S_gamma(t).

    Distributionally equal to the space-fractional process of order
    alpha * gamma.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    gen = _as_generator(rng)
    s, _ = _stable_unit(gamma, 1, gen)
    time = t ** (1.0 / gamma) * s
    counts, _ = _space_fractional_counts(lam, alpha, time, 1, gen)
    return int(counts[0])


def _ml_waiting_times(nu: float, rate: float, size: int,
                      gen: np.random.Generator):
    """Waiting times T with Pr{T > t} = E_nu(-rate * t**nu).

    Mixture representation T = (E**(1/nu) * S_nu) / rate**(1/nu) with E
    unit exponential and S_nu one-sided stable; exponential at nu = 1.
    """
    if nu == 1.0:
        return gen.exponential(1.0 / rate, size), 0
    e = gen.standard_exponential(size)
    s, redraws = _stable_unit(nu, size, gen)
    return e ** (1.0 / nu) * s / rate ** (1.0 / nu), redraws


def sample_ml_waiting_time(nu: float, rate: float, rng) -> float:
    """One Mittag-Leffler renewal waiting time for a rate-`rate` process."""
    if not 0 < nu <= 1:
        raise ValueError("nu must lie in (0, 1]")
    if not rate > 0:
        raise ValueError("rate must be > 0")
    t, _ = _ml_waiting_times(nu, rate, 1, _as_generator(rng))
    return float(t[0])


def _time_fractional_counts(lam: float, nu: float, t: float, n: int,
                            gen: np.random.Generator):
    """Renewal counts: epochs of ML waiting times falling in [0, t]."""
    counts = np.zeros(n, dtype=np.int64)
    elapsed = np.zeros(n)
    active = np.arange(n)
    redraws = 0
    while active.size:
        w, rd = _ml_waiting_times(nu, lam, active.size, gen)
        redraws += rd
        elapsed[active] += w
        within = elapsed[active] <= t
        counts[active[within]] += 1
        active = active[within]
    return counts, redraws


def sample_time_fractional(params: ProcessParams, t: float, rng) -> int:
    """One draw of the time-fractional process N_nu(t) (alpha = 1)."""
    if params.alpha != 1.0:
        raise ValueError("time-fractional sampler requires alpha = 1")
    if not t > 0:
        raise ValueError("t must be > 0")
    counts, _ = _time_fractional_counts(params.lam, params.nu, t, 1,
                                        _as_generator(rng))
    return int(counts[0])


def _inverse_stable_times(nu: float, t: float, size: int,
                          gen: np.random.Generator):
    """Draws of the inverse-nu-stable time change L_nu(t) = t**nu * S**-nu."""
    s, redraws = _stable_unit(nu, size, gen)
    return t ** nu * s ** -nu, redraws


def _space_time_counts(params: ProcessParams, t: float, n: int,
                       gen: np.random.Generator):
    if params.nu == 1.0:
        return _space_fractional_counts(params.lam, params.alpha, t, n, gen)
    times, rd1 = _inverse_stable_times(params.nu, t, n, gen)
    counts, rd2 = _space_fractional_counts(params.lam, params.alpha, times,
                                           n, gen)
    return counts, rd1 + rd2


def sample_space_time(params: ProcessParams, t: float, rng) -> int:
    """One draw of the space-time fractional process N_{alpha,nu}(t).

    Space-fractional process run on an inverse-nu-stable time change;
    reproduces the PGF E_nu(-lam**alpha * (1-u)**alpha * t**nu).
    """
    if not t > 0:
        raise ValueError("t must be > 0")
    counts, _ = _space_time_counts(params, t, 1, _as_generator(rng))
    return int(counts[0])


_PROCESSES = ("space", "time", "space-time", "composed")
_CHUNK = 1 << 16


def sample_batch(process: str, params: ProcessParams, t: float, n: int,
                 rng: RngStream, gamma: float | None = None,
                 threads: int = 1) -> SampleBatch:
    """Batch of n counts from the named process.

    Work is split into fixed-size chunks, each drawn from its own child
    stream, so the output is bit-identical for any thread count.
    """
    if process not in _PROCESSES:
        raise ValueError(f"unknown process {process!r}; expected one of "
                         f"{_PROCESSES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not t > 0:
        raise ValueError("t must be > 0")
    if process == "composed":
        if gamma is None:
            raise ValueError("the composed process requires gamma")
        if not 0 < gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
    if process == "space" and params.nu != 1.0:
        raise ValueError("the space process requires nu = 1")
    if process == "time" and params.alpha != 1.0:
        raise ValueError("the time process requires alpha = 1")

    def run_chunk(idx: int) -> tuple[np.ndarray, int]:
        lo = idx * _CHUNK
        m = min(_CHUNK, n - lo)
        gen = rng.child(idx).generator()
        if process == "space":
            return _space_fractional_counts(params.lam, params.alpha, t, m, gen)
        if process == "time":
            return _time_fractional_counts(params.lam, params.nu, t, m, gen)
        if process == "space-time":
            return _space_time_counts(params, t, m, gen)
        s, rd1 = _stable_unit(gamma, m, gen)
        times = t ** (1.0 / gamma) * s
        counts, rd2 = _space_fractional_counts(params.lam, params.alpha,
                                               times, m, gen)
        return counts, rd1 + rd2

    nchunks = (n + _CHUNK - 1) // _CHUNK
    if threads > 1 and nchunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, range(nchunks)))
    else:
        results = [run_chunk(i) for i in range(nchunks)]
    counts = np.concatenate([c for c, _ in results])
    redraws = sum(r for _, r in results)
    return SampleBatch(counts=counts, params=params, t=t, seed=rng.seed,
                       n=n, stream_id=rng.stream_id, redraws=redraws,
                       gamma=gamma if process == "composed" else None)
