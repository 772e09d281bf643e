import mpmath as mp
import numpy as np
import pytest

from fracpois import special_fn

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


class _Stop(Exception):
    pass


@pytest.fixture
def profile_scans(monkeypatch):
    """``profile_scans(module, call)`` runs ``call`` up to the profile scan
    that ``module`` makes and returns the peak (rpeak, lpeak) the scan
    finds, the number of entries it evaluates, and the full scan of the
    same term magnitudes up to the scan's limit."""
    def scans(module, call):
        seen = {"size": 0}

        def spy(block, rmax, r_concave):
            def counted(r):
                seen["size"] += r.size
                return block(r)

            seen["peak"] = special_fn._scan_profile(counted, rmax, r_concave)
            with np.errstate(divide="ignore", invalid="ignore"):
                full = block(np.arange(rmax + 1, dtype=float))
            full[~np.isfinite(full)] = -np.inf
            seen["full"] = full
            raise _Stop

        monkeypatch.setattr(module, "_scan_profile", spy)
        with pytest.raises(_Stop):
            call()
        return seen["peak"], seen["size"], seen["full"]

    return scans


def _panjer_row(lam, alpha, t, kmax, dps=60):
    """Masses k = 0..kmax of the space-fractional law (lam, alpha, nu = 1)
    at time t, by Panjer's recursion for Poisson(lam**alpha * t) sums of
    Sibuya(alpha) jumps at dps digits: p_n = (a/n) * sum_j j*s_j*p_{n-j},
    every term positive."""
    with mp.workdps(dps):
        a, al = mp.mpf(lam) ** alpha * mp.mpf(t), mp.mpf(alpha)
        s, c = [mp.mpf(0)], al
        for j in range(1, kmax + 1):
            s.append(c)
            c = c * (j - al) / (j + 1)
        p = [mp.exp(-a)]
        for n in range(1, kmax + 1):
            p.append(a / n * mp.fsum(j * s[j] * p[n - j]
                                     for j in range(1, n + 1)))
        return p


@pytest.fixture
def panjer_row():
    """``panjer_row(lam, alpha, t, kmax)``: a 60-digit reference row of the
    space-fractional law that shares no code with ``dist``."""
    return _panjer_row
