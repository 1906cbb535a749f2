import math

import numpy as np
import pytest

from diskinterp import BoundaryData, BoundsCertificate, Interpolant, StageApproximant

TWO_PI = 2.0 * math.pi


def random_problem(rng: np.random.Generator, max_points: int) -> BoundaryData:
    """Seeded problem with uniform angles and complex values of sup norm 1."""
    n = int(rng.integers(1, max_points + 1))
    thetas = np.sort(rng.uniform(0.0, TWO_PI, n))
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    vals = vals / np.max(np.abs(vals))
    return BoundaryData.from_pairs(thetas, vals)


def one_stage(stage: StageApproximant) -> Interpolant:
    """``stage`` alone as an interpolant. The evaluators read only the
    stages, so the certificate is zeros."""
    return Interpolant((stage,), BoundsCertificate(*[0.0] * 6))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
