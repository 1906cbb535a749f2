"""Seeded problem sets for the three benchmark workloads.

Every problem uses the pinned pipeline parameters (eta 0.01, n_max 20,
grid 2^16, safety margin 1e-9).  A problem is written out as a
``diskinterp`` problem file, and the library only ever sees what that file
holds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ETA = 0.01
N_MAX = 20
GRID_SIZE = 1 << 16
SAFETY_MARGIN = 1e-9

# Random and dense-steps angles keep every gap above this share of the mean
# gap, so that no seed puts two points closer than the pipeline can resolve.
MIN_GAP_SHARE = 0.25
RANDOM_SIZES = (6, 8, 12, 12)
# Dense-steps layouts are drawn once from LAYOUT_SEED and only turned and
# phased by --seed: with seeded layouts the number of cached clusters, and
# with it build time and memory, moved by 20-25% between seeds.
DENSE_SIZES = (16, 48, 48)
DENSE_LEVELS = 3
DENSE_LEVEL_SEPARATION = 0.2
LAYOUT_SEED = 20151006
# Separations of the opposite-valued pair in the close-pairs problems; the
# companion layouts alternate.  The last two fail today; their inputs do not
# depend on --seed.
CLOSE_SEPARATIONS = (1e-2, 3e-3, 1e-3, 1e-3)
CLOSE_FAILING_SEPARATIONS = (3e-4, 1e-4)
# Companions as (angle offset from the pair, value): fixed layouts, so that
# the separation, not the companions, sets the work of a problem.
CLOSE_LAYOUTS = (
    ((2.2, 0.6 + 0.3j), (3.9, -0.2 + 0.7j)),
    ((1.6, -0.5 - 0.4j), (4.4, 0.1 - 0.75j)),
)


@dataclass(frozen=True)
class Problem:
    pid: str
    thetas: tuple[float, ...]
    values: tuple[complex, ...]
    expect_no_contraction: bool = False

    def to_json_obj(self, audit_seed: int) -> dict:
        return {
            "points": [
                {"theta": float(t), "value_re": v.real, "value_im": v.imag}
                for t, v in zip(self.thetas, self.values)
            ],
            "eta": ETA,
            "n_max": N_MAX,
            "grid_size": GRID_SIZE,
            "safety_margin": SAFETY_MARGIN,
            "seed": int(audit_seed),
        }


def _spread_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform angles conditioned on every circular gap being at least
    MIN_GAP_SHARE of the mean gap (uniform excess on the gap simplex)."""
    floor = MIN_GAP_SHARE * TWO_PI / n
    gaps = floor + (TWO_PI - n * floor) * rng.dirichlet(np.ones(n))
    return np.mod(rng.uniform(0.0, TWO_PI) + np.cumsum(gaps), TWO_PI)


def _gaussian_values(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.max(np.abs(v))


def random_problems(seed: int) -> list[Problem]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for i, n in enumerate(RANDOM_SIZES):
        out.append(
            Problem(
                f"random-{i}-n{n}",
                tuple(_spread_angles(rng, n).tolist()),
                tuple(_gaussian_values(rng, n).tolist()),
            )
        )
    return out


def _step_problem(rng: np.random.Generator, n: int) -> Problem:
    thetas = _spread_angles(rng, n)
    cuts = np.sort(rng.uniform(0.0, TWO_PI, DENSE_LEVELS))
    while True:
        levels = _gaussian_values(rng, DENSE_LEVELS)
        diffs = np.abs(levels[:, None] - levels[None, :])
        if np.min(diffs + np.eye(DENSE_LEVELS) * 10.0) >= DENSE_LEVEL_SEPARATION:
            break
    step = np.searchsorted(cuts, thetas) % DENSE_LEVELS
    return Problem("", tuple(thetas.tolist()), tuple(levels[step].tolist()))


def _turned(p: Problem, pid: str, turn: float, phase: complex) -> Problem:
    """``p`` turned by ``turn`` radians, its values times the unit ``phase``."""
    return dataclasses.replace(
        p,
        pid=pid,
        thetas=tuple((t + turn) % TWO_PI for t in p.thetas),
        values=tuple(complex(v * phase) for v in p.values),
    )


def dense_steps_problems(seed: int) -> list[Problem]:
    layouts = np.random.default_rng(LAYOUT_SEED)
    rng = np.random.default_rng([seed, 2])
    return [
        _turned(
            _step_problem(layouts, n),
            f"dense-steps-{i}-n{n}",
            rng.uniform(0.0, TWO_PI),
            complex(np.exp(1j * rng.uniform(0.0, TWO_PI))),
        )
        for i, n in enumerate(DENSE_SIZES)
    ]


def _close_pair_problem(pid: str, separation: float, layout, failing: bool) -> Problem:
    """A pair ``separation`` apart with values 1 and -1 plus the layout's
    companions."""
    thetas = [0.0, separation] + [offset for offset, _ in layout]
    values = [1.0 + 0.0j, -1.0 + 0.0j] + [value for _, value in layout]
    return Problem(pid, tuple(thetas), tuple(values), failing)


def close_pairs_problems(seed: int) -> list[Problem]:
    """Each solvable problem is turned and phased by the seed; the two
    failing problems are not."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i, d in enumerate(CLOSE_SEPARATIONS):
        pid = f"close-pairs-{i}-d{d:.0e}"
        out.append(
            _turned(
                _close_pair_problem(pid, d, CLOSE_LAYOUTS[i % 2], False),
                pid,
                rng.uniform(0.0, TWO_PI),
                complex(np.exp(1j * rng.uniform(0.0, TWO_PI))),
            )
        )
    for i, d in enumerate(CLOSE_FAILING_SEPARATIONS, len(out)):
        pid = f"close-pairs-{i}-d{d:.0e}"
        out.append(_turned(_close_pair_problem(pid, d, CLOSE_LAYOUTS[0], True), pid, 1.0, 1j))
    return out


WORKLOADS = {
    "random": random_problems,
    "dense-steps": dense_steps_problems,
    "close-pairs": close_pairs_problems,
}
