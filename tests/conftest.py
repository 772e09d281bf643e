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
    that ``module`` makes and returns the blockwise profile it scans and
    the full scan of the same term magnitudes up to the scan's limit."""
    def scans(module, call):
        seen = {}

        def spy(block, rows, rmax, r_concave):
            seen["scan"] = special_fn._scan_profile(block, rows, rmax,
                                                    r_concave)[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                full = block(np.arange(rmax + 1, dtype=float))[:, -1]
            full[~np.isfinite(full)] = -np.inf
            seen["full"] = full
            raise _Stop

        monkeypatch.setattr(module, "_scan_profile", spy)
        with pytest.raises(_Stop):
            call()
        return seen["scan"], seen["full"]

    return scans
