import math

import numpy as np
import pytest

from teig import radial
from teig.eigensolve import lowest_k
from teig.model import ProblemKind


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the radial scan and the eigensolve once so timed tests measure
    steady state."""
    radial._scan_determinant(ProblemKind.HELMHOLTZ, 1, math.pi, 0.75, 0, 0.5, 5.0, 50, 1e-6)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    lowest_k(a + a.T, np.eye(6), 3)
