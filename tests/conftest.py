import mpmath
import numpy as np
import pytest

import zonalab as zl


@pytest.fixture(scope="session")
def sphere3():
    return zl.SphereSpec(3)


@pytest.fixture(scope="session")
def grid144(sphere3):
    # shared high-resolution grid, exact through degree 32 products
    return zl.make_grid(sphere3, 144, kexact=32)


@pytest.fixture(scope="session")
def grid80(sphere3):
    # cheaper grid for unit tests that only touch low degrees
    return zl.make_grid(sphere3, 80, kexact=16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def zonal_s3_mp():
    """Z_k(cos theta) on S^3 in 30 digits at float polar angles,
    (k+1) sin((k+1) theta) / (2 pi^2 sin theta), with Z_k(1) at theta = 0:
    the oracle of the closed-form rows."""
    mp = mpmath.mp.clone()
    mp.dps = 30

    def zk(k, theta):
        m = k + 1
        out = []
        for th in np.atleast_1d(theta):
            th = mp.mpf(float(th))
            s = mp.sin(th)
            val = m * m if s == 0 else m * mp.sin(m * th) / s
            out.append(float(val / (2 * mp.pi ** 2)))
        return np.array(out)

    return zk
