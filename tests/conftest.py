import math
import os
from pathlib import Path

import numpy as np
import pytest

from teig import radial
from teig.model import ProblemKind

from pencil import spectrum

# CLI tests run `python -m teig` in subprocesses; they import this checkout too,
# and a RuntimeWarning fails them as pyproject's filterwarnings fails an
# in-process test
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the radial scan and the eigensolve once so timed tests measure
    steady state."""
    ball = radial.RadialProblem(ProblemKind.HELMHOLTZ, 1, math.pi, 0.75)
    radial.te_lists_up_to(ball, [5.0], [0], 50)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    spectrum(a + a.T, np.eye(6))
