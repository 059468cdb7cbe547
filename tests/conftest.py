import math
import os
from pathlib import Path

import numpy as np
import pytest

from teig import radial
from teig.eigensolve import lowest_k
from teig.model import ProblemKind

# CLI tests run `python -m teig` in subprocesses; they import this checkout too
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the radial scan and the eigensolve once so timed tests measure
    steady state."""
    radial._scan_determinant(ProblemKind.HELMHOLTZ, 1, math.pi, 0.75, 0, 0.5, 5.0, 50, 1e-6)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    lowest_k(a + a.T, np.eye(6), 3)
