import mpmath as mp
import pytest
from mpmath import mpf

from xilab.pipeline import run_row


@pytest.fixture(autouse=True)
def _fixed_precision():
    """Every test runs at the default 60-digit working precision."""
    with mp.workdps(60):
        yield


def rel_err(got, want) -> mpf:
    got, want = mp.mpf(got) if not isinstance(got, mp.mpc) else got, mpf(str(want))
    denom = abs(want) if want != 0 else mpf(1)
    return abs(got - want) / denom


def assert_rel(got, want, tol, label=""):
    e = rel_err(got, want)
    assert e < mpf(str(tol)), \
        f"{label}: got {mp.nstr(mp.mpf(got), 10)}, want {want}, rel err {mp.nstr(e, 3)}"


@pytest.fixture(scope="session")
def rows():
    """Session cache of the standard report rows (they are pure but pricey)."""
    cache = {}

    def get(row_id, N=16):
        key = (row_id, N)
        if key not in cache:
            with mp.workdps(60):
                cache[key] = run_row(row_id, N=N)
        return cache[key]

    return get
