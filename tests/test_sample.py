import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erfcinv

from fracpois import sample, verify
from fracpois.dist import ProcessParams
from fracpois.sample import RngStream, SampleBatch, sample_batch
from fracpois.special_fn import mittag_leffler


def test_rng_stream_reproducible():
    a = RngStream(7, 3).generator().random(5)
    b = RngStream(7, 3).generator().random(5)
    assert np.array_equal(a, b)


def test_rng_stream_ids_differ():
    a = RngStream(7, 0).generator().random(5)
    b = RngStream(7, 1).generator().random(5)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2 ** 64, 0),
                                             (0, -1), (0, 2 ** 64)])
def test_rng_stream_key_range(seed, stream_id):
    """seed and stream_id are the 64-bit halves of the Philox key: values
    outside [0, 2**64) would alias another stream."""
    with pytest.raises(ValueError):
        RngStream(seed, stream_id)
    top = RngStream(2 ** 64 - 1, 2 ** 64 - 1).generator().random(3)
    assert not np.array_equal(top, RngStream(0, 0).generator().random(3))


def test_child_streams_are_distinct():
    root = RngStream(11)
    kids = {tuple(root.child(i).generator().random(2)) for i in range(100)}
    assert len(kids) == 100
    assert tuple(root.generator().random(2)) not in kids


def test_child_streams_do_not_alias_other_stream_ids():
    a = RngStream(7, 1 << 20).generator().random(4)
    b = RngStream(7, 0).child(0).generator().random(4)
    assert not np.array_equal(a, b)


def test_child_index_range():
    with pytest.raises(ValueError):
        RngStream(0).child(-1)
    deep = RngStream(0).child(1).child(2).child(3).child(4)
    with pytest.raises(ValueError):
        deep.child(0)


def test_sample_batch_length_check():
    with pytest.raises(ValueError):
        SampleBatch(counts=np.zeros(3, dtype=np.int64),
                    params=ProcessParams(1.0), t=1.0, seed=0, n=5)


def test_batch_provenance_rebuilds_its_stream():
    """A batch names the stream it was drawn from: RngStream(seed,
    stream_id, substream) of its fields draws its counts again, for a root
    stream and its child alike, which share seed and stream id but not
    counts."""
    params = ProcessParams(1.0, 1.0, 0.5)
    for draw in (lambda rng: sample_batch("time", params, 1.0, 1000, rng),
                 lambda rng: verify.renewal_batch(params, 1.0, 1000, rng)):
        a, b = draw(RngStream(1)), draw(RngStream(1).child(0))
        assert (a.seed, a.stream_id) == (b.seed, b.stream_id)
        assert not np.array_equal(a.counts, b.counts)
        for batch in (a, b):
            again = draw(RngStream(batch.seed, batch.stream_id,
                                   batch.substream))
            assert np.array_equal(again.counts, batch.counts)


def test_poisson_moments():
    """A scalar mean and an array of means give Poisson counts alike."""
    gen = RngStream(1).generator()
    mu, n = 4.0, 20_000
    for x in (sample._poisson_counts(mu, n, gen),
              sample._poisson_counts(np.full(n, mu), n, gen)):
        assert x.shape == (n,)
        assert x.mean() == pytest.approx(mu, abs=4 * math.sqrt(mu / n))
        assert x.var() == pytest.approx(mu, rel=0.05)


def test_poisson_huge_mean_clamps():
    """Counts are clamped to 2**62, not means: numpy draws every mean up to
    its own limit (about 9.22e18), and only means above it, or inf, give
    2**62 without a draw.  Small means are drawn as numpy draws them."""
    cap = 1 << 62
    x = sample._poisson_counts(4e18, 3, RngStream(1).generator())
    assert (np.abs(x - 4e18) <= 10 * math.sqrt(4e18)).all()
    gen = RngStream(1).generator()
    for mu in (9.2e18, 1e200, math.inf):
        assert (sample._poisson_counts(mu, 3, gen) == cap).all()
    mu = np.array([2.0, 4e18, 9.2e18, 1e200, 3.0, math.inf])
    x = sample._poisson_counts(mu, mu.size, RngStream(2).generator())
    assert abs(x[1] - 4e18) <= 10 * math.sqrt(4e18)
    assert (x[[2, 3, 5]] == cap).all()
    ref = RngStream(2).generator().poisson([2.0, 4e18, 9.2e18, 3.0])
    assert np.array_equal(x[[0, 4]], ref[[0, 3]])


def test_stable_laplace_transform():
    """E[exp(-z * S_gamma)] = exp(-z**gamma) within 4 sigma."""
    gen = RngStream(5).generator()
    n = 200_000
    for gamma in (0.4, 0.7):
        log_s, _ = sample._log_stable(gamma, n, gen)
        s = np.exp(log_s)
        for z in (0.5, 1.0, 2.0):
            y = np.exp(-z * s)
            target = math.exp(-z ** gamma)
            se = y.std() / math.sqrt(n)
            assert abs(y.mean() - target) < 4 * se


def test_stable_unit_is_kanter_of_first_draws():
    """Without a redraw the output is the log of Kanter's formula applied to
    the stream's first random and standard_exponential draws, in that
    order.  The log-space form with half-angle tangents rounds differently
    from the sines, so exp(log S) matches to a relative 1e-13."""
    g, n = 0.7, 10_000
    log_s, redraws = sample._log_stable(g, n, RngStream(3).generator())
    gen = RngStream(3).generator()
    u = gen.random(n)
    e = gen.standard_exponential(n)
    ref = (np.sin(g * math.pi * u) / np.sin(math.pi * u) ** (1.0 / g)
           * (np.sin((1.0 - g) * math.pi * u) / e) ** ((1.0 - g) / g))
    assert redraws == 0
    np.testing.assert_allclose(np.exp(log_s), ref, rtol=1e-13, atol=0)


class _FirstUniformZero:
    """A generator whose first uniform draw is 0; every draw is gen's."""

    def __init__(self, gen):
        self.gen = gen
        self.first = True

    def random(self, size):
        u = self.gen.random(size)
        if self.first:
            u[0], self.first = 0.0, False
        return u

    def standard_exponential(self, size):
        return self.gen.standard_exponential(size)


def test_stable_unit_redraws_overflow():
    """u = 0 makes log S non-finite (log sin 0 = -inf), and only that entry
    is drawn again; the heavy tail itself is kept (see
    test_stable_heavy_tail_is_kept)."""
    log_s, redraws = sample._log_stable(
        0.01, 20_000, _FirstUniformZero(RngStream(4).generator()))
    ref, ref_redraws = sample._log_stable(0.01, 20_000,
                                          RngStream(4).generator())
    assert redraws == 1 and ref_redraws == 0
    assert np.isfinite(log_s).all()
    assert np.array_equal(log_s[1:], ref[1:])


def _stable_tail(g, log_x):
    """Pr{S_g > x} by the convergent series
    sum_k (-1)**(k+1) Gamma(g k) sin(pi g k) x**(-g k) / (pi k!)."""
    return sum((-1) ** (k + 1) * math.gamma(g * k) * math.sin(math.pi * g * k)
               * math.exp(-g * k * log_x) / (math.pi * math.factorial(k))
               for k in range(1, 60))


def _within_4_sigma(hits, n, p):
    return abs(hits - n * p) < 4 * math.sqrt(n * p * (1 - p))


def test_stable_heavy_tail_is_kept():
    """Over 1e6 draws at g = .01 the number of S above 1e300 lies within 4
    sigma of the exact tail, about 1e-3.  A sampler that rejects draws
    above 1e300 gives 0."""
    g, n, log_x = 0.01, 10 ** 6, math.log(1e300)
    log_s, _ = sample._log_stable(g, n, RngStream(8).generator())
    hits = int(np.count_nonzero(log_s > log_x))
    assert _within_4_sigma(hits, n, _stable_tail(g, log_x))


def test_batch_capped_fraction_matches_tail():
    """At lam = t = 1 a space count is capped where S_alpha >= 2**62 (the
    Poisson spread there is a relative 1e-9), so at alpha = .05 the capped
    fraction, about 0.107, is the stable tail at 2**62."""
    g = 0.05
    batch = sample_batch("space", ProcessParams(1.0, g), 1.0, 200_000,
                         RngStream(13))
    assert batch.capped == np.count_nonzero(batch.counts == 2 ** 62)
    assert _within_4_sigma(batch.capped, batch.n,
                           _stable_tail(g, 62 * math.log(2)))


def test_stable_levy_median():
    # LT exp(-z**0.5) is Levy with scale 1/2; median 1/(4*erfcinv(1/2)**2)
    gen = RngStream(9).generator()
    log_s, _ = sample._log_stable(0.5, 200_000, gen)
    target = 0.25 / erfcinv(0.5) ** 2
    med = np.exp(np.median(log_s))
    assert med == pytest.approx(target, rel=0.02)


def test_stable_rejects_bad_gamma():
    gen = RngStream(0).generator()
    with pytest.raises(ValueError):
        sample._log_stable(1.0, 10, gen)


def _fail(*args, **kwargs):
    raise AssertionError("called")


class _FewDraws:
    """A generator that serves a few draws and then fails, so that a redraw
    loop that never ends fails a test instead of hanging it."""

    def __init__(self, gen, draws=8):
        self.gen = gen
        self.left = draws

    def __getattr__(self, name):
        if self.left == 0:
            raise AssertionError("too many draws")
        self.left -= 1
        return getattr(self.gen, name)


@pytest.mark.parametrize("g", [1e-310, 5e-324])
def test_stable_rejects_orders_whose_inverse_overflows(g):
    """Below about 5.6e-309 1/g overflows and every log S is non-finite:
    the order is refused before any draw."""
    gen = _FewDraws(RngStream(0).generator())
    with pytest.raises(ValueError, match="1/gamma finite"):
        sample._log_stable(g, 4, gen)
    assert gen.left == 8
    rng = SimpleNamespace(generator=lambda: _FewDraws(
        RngStream(0).generator()), seed=0, stream_id=0)
    with pytest.raises(ValueError, match="1/nu finite"):
        verify.renewal_batch(ProcessParams(1.0, 1.0, g), 1.0, 4, rng)
    # an order of 1e-300 still draws
    assert np.isfinite(sample._log_stable(1e-300, 4, gen)[0]).all()


@pytest.mark.parametrize("process, params, gamma, name", [
    ("space", ProcessParams(1.0, 1e-310), None, "alpha"),
    ("time", ProcessParams(1.0, 1.0, 1e-310), None, "nu"),
    ("space-time", ProcessParams(1.0, 0.5, 1e-310), None, "nu"),
    ("composed", ProcessParams(1.0, 0.5), 1e-310, "gamma"),
    ("composed", ProcessParams(1.0, 1e-310), 0.5, "alpha"),
])
def test_sample_batch_checks_orders_before_drawing(monkeypatch, process,
                                                   params, gamma, name):
    """Every order the process draws at is checked before any chunk."""
    monkeypatch.setattr(sample, "_mixed_poisson_counts", _fail)
    with pytest.raises(ValueError, match=f"1/{name} finite"):
        sample_batch(process, params, 1.0, 10, RngStream(0), gamma=gamma)


@pytest.mark.parametrize("nu", [0.05, 0.6, 0.999])
def test_ml_waiting_time_survival(nu):
    """Pr{T > t} must match E_nu(-lam * t**nu)."""
    gen = RngStream(17).generator()
    n = 200_000
    lam = 1.3
    w = verify._ml_waiting_times(nu, lam, n, gen)
    for t in (0.5, 1.0, 2.0):
        emp = float((w > t).mean())
        target = mittag_leffler(nu, -lam * t ** nu).value
        se = math.sqrt(target * (1 - target) / n)
        assert abs(emp - target) < 4 * se


def test_ml_waiting_time_exponential_case():
    gen = RngStream(17).generator()
    w = verify._ml_waiting_times(1.0, 2.0, 100_000, gen)
    assert w.mean() == pytest.approx(0.5, rel=0.02)


def test_space_fractional_p0_frequency():
    """p_0 = exp(-lam**alpha * t) with a binomial error bar."""
    batch = sample_batch("space", ProcessParams(1.0, 0.5), 1.0, 100_000,
                         RngStream(23))
    emp = float((batch.counts == 0).mean())
    target = math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / batch.n)
    assert abs(emp - target) < 4 * se


def test_space_time_pgf_empirical():
    """Empirical E[u**N] against E_nu(-lam**alpha * (1-u)**alpha * t**nu)."""
    params = ProcessParams(1.0, 0.7, 0.5)
    batch = sample_batch("space-time", params, 1.0, 100_000, RngStream(29))
    u = 0.5
    y = u ** batch.counts.astype(float)
    target = mittag_leffler(0.5, -((1 - u) ** 0.7)).value
    se = y.std() / math.sqrt(batch.n)
    assert abs(y.mean() - target) < 4 * se


def test_time_fractional_pgf_empirical():
    params = ProcessParams(1.0, 1.0, 0.5)
    batch = sample_batch("time", params, 1.0, 100_000, RngStream(31))
    u = 0.4
    y = u ** batch.counts.astype(float)
    target = mittag_leffler(0.5, -(1 - u)).value
    se = y.std() / math.sqrt(batch.n)
    assert abs(y.mean() - target) < 4 * se


def test_time_counts_match_renewal_reference():
    """Mixture counts Poisson(lam * L_nu(t)) against renewal epochs."""
    params = ProcessParams(2.0, 1.0, 0.3)

    def run(n, attempt):
        a = sample_batch("time", params, 3.0, n, RngStream(61, attempt))
        b = verify.renewal_batch(params, 3.0, n, RngStream(61, 2 + attempt))
        rep = verify.gof_two_sample(a.counts, b.counts)
        return rep.passed, rep

    passed, rep = verify.two_stage(run, 100_000)
    assert passed, rep.p_value


@pytest.mark.parametrize("process,params,calls", [
    ("space", ProcessParams(1.0, 0.5), 2),
    ("time", ProcessParams(1.0, 1.0, 0.7), 2),
    ("space-time", ProcessParams(1.0, 0.5, 0.7), 4),
    ("composed", ProcessParams(1.0, 0.5), 4),
])
def test_batch_counts_stable_redraws(monkeypatch, process, params, calls):
    """Every chunk's stable redraws add up in SampleBatch.redraws."""
    log_stable = sample._log_stable
    redraws = []

    def one_more(gamma, size, gen):
        log_s, rd = log_stable(gamma, size, gen)
        redraws.append(rd + 1)
        return log_s, rd + 1

    monkeypatch.setattr(sample, "_log_stable", one_more)
    batch = sample_batch(process, params, 1.0, sample._CHUNK + 1,
                         RngStream(3),
                         gamma=0.5 if process == "composed" else None)
    assert len(redraws) == calls
    assert batch.redraws == sum(redraws)


def test_batch_deterministic_across_threads():
    params = ProcessParams(1.0, 0.6)
    a = sample_batch("space", params, 1.0, 150_000, RngStream(41), threads=1)
    b = sample_batch("space", params, 1.0, 150_000, RngStream(41), threads=4)
    assert np.array_equal(a.counts, b.counts)
    assert a.redraws == b.redraws


@pytest.mark.parametrize("process, params, gamma", [
    ("space", ProcessParams(1.0, 0.6), None),
    ("time", ProcessParams(1.0, 1.0, 0.7), None),
    ("space-time", ProcessParams(1.0, 0.6, 0.7), None),
    ("composed", ProcessParams(1.0, 0.8), 0.5),
])
def test_batch_default_threads_match_one(process, params, gamma):
    """The default fan-out (a thread per usable CPU) gives the counts and
    redraws of one thread, over full chunks and a ragged last one."""
    n = 3 * sample._CHUNK + 7
    a = sample_batch(process, params, 1.0, n, RngStream(43), gamma=gamma)
    b = sample_batch(process, params, 1.0, n, RngStream(43), gamma=gamma,
                     threads=1)
    assert np.array_equal(a.counts, b.counts)
    assert a.redraws == b.redraws


def test_batch_threads_bounded_by_cpus(monkeypatch):
    """An explicit thread count is capped by the usable CPUs, and the counts
    stay those of one thread.  The pool is a fake that records max_workers
    and maps serially, so no thread starts at threads=100_000."""
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sample, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sample, "_usable_cpus", lambda: 3)
    n, params = 5 * sample._CHUNK + 7, ProcessParams(1.0, 0.6)
    a = sample_batch("space", params, 1.0, n, RngStream(47), threads=100_000)
    b = sample_batch("space", params, 1.0, n, RngStream(47), threads=1)
    assert workers == [3]
    assert np.array_equal(a.counts, b.counts)


def test_batch_deterministic_in_seed():
    params = ProcessParams(2.0, 1.0, 0.7)
    a = sample_batch("time", params, 1.0, 5_000, RngStream(41))
    b = sample_batch("time", params, 1.0, 5_000, RngStream(41))
    c = sample_batch("time", params, 1.0, 5_000, RngStream(42))
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_batch_argument_validation():
    params = ProcessParams(1.0, 0.5)
    with pytest.raises(ValueError):
        sample_batch("bogus", params, 1.0, 10, RngStream(0))
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            sample_batch("space", params, t, 10, RngStream(0))
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sample_batch("space", params, 1.0, 10, RngStream(0), threads=0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_batch("space", params, 1.0, 0, RngStream(0))
    with pytest.raises(ValueError):
        sample_batch("composed", params, 1.0, 10, RngStream(0))  # no gamma
    with pytest.raises(ValueError, match="only to the composed process"):
        sample_batch("space", params, 1.0, 10, RngStream(0), gamma=0.5)
    with pytest.raises(ValueError):
        sample_batch("space", ProcessParams(1.0, 0.5, 0.5), 1.0, 10,
                     RngStream(0))
    with pytest.raises(ValueError):
        sample_batch("time", params, 1.0, 10, RngStream(0))
    with pytest.raises(ValueError, match="composed process requires nu = 1"):
        sample_batch("composed", ProcessParams(1.0, 0.7, 0.5), 1.0, 10,
                     RngStream(0), gamma=0.5)


def test_composed_matches_direct_order():
    """N_alpha(S_gamma(t)) and N_{alpha*gamma}(t) share their zero mass."""
    n = 100_000
    a = sample_batch("composed", ProcessParams(1.0, 0.8), 1.0, n,
                     RngStream(51), gamma=0.5)
    b = sample_batch("space", ProcessParams(1.0, 0.4), 1.0, n, RngStream(52))
    pa = float((a.counts == 0).mean())
    pb = float((b.counts == 0).mean())
    se = math.sqrt(2 * 0.7 * 0.3 / n)
    assert abs(pa - pb) < 4 * se
