"""Spectral checks on a flat two-dimensional torus.

The Dirac operator acts on two-component spinors over Fourier modes; its
square is the scalar |kappa|^2 = kappa_1^2 + kappa_2^2, so each truncated
lattice Gaussian sum is the product of two circle sums, with a
Poisson-summation cross-check.  A report reads the mode energies once and
takes one exponential over its whole grid of heat times.  The rank-two
Clifford conventions (including the grading) come from
:mod:`chernloc.clifford`, so the constant reproduced by the small-time limit
here is pinned to the same normalization as the symbolic modules.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import spinor_representation
from .multiform import _integer

_SPIN_OFFSETS = {"p": 0.0, "a": 0.5}


@dataclass(frozen=True)
class TorusModel:
    """Flat torus with side lengths L1, L2 and Fourier cutoff K.

    ``spin`` is a two-letter string, one letter per circle, 'p' for
    periodic and 'a' for antiperiodic.
    """

    L1: float = 2 * math.pi
    L2: float = 2 * math.pi
    K: int = 64
    spin: str = "pp"

    def __post_init__(self):
        if _integer(self.K, "Fourier cutoff") < 1:
            raise ValueError("Fourier cutoff must be at least one")
        if self.K > sys.float_info.max:
            raise ValueError("the Fourier cutoff K is too large for a float")
        for L in (self.L1, self.L2):
            if not (math.isfinite(L) and L > 0):
                raise ValueError(f"side lengths must be finite and positive, got {L!r}")
        area = self.L1 * self.L2
        if not (math.isfinite(area) and area > 0):
            raise ValueError(f"the area L1 * L2 = {self.L1!r} * {self.L2!r} "
                             f"{'underflows to 0' if area == 0 else 'overflows'}")
        for name, L in (("L1", self.L1), ("L2", self.L2)):
            top = 2 * math.pi * (self.K + 0.5) / L
            if not math.isfinite(top * top):
                raise ValueError(f"side {name} = {L!r} is too short for the cutoff "
                                 f"K = {self.K}: the largest mode energy "
                                 "(2 pi (K + 1/2) / L)^2 is not finite")
        if len(self.spin) != 2 or any(s not in _SPIN_OFFSETS for s in self.spin):
            raise ValueError("spin structure must be two letters from {p, a}")

    @property
    def area(self):
        return self.L1 * self.L2

    def mode_energies(self):
        """kappa_1^2 and kappa_2^2 on the truncated circles, one (2, 2K+1)
        array; the spectrum of D^2 is the sum of the two rows over the
        product grid."""
        m = np.arange(-self.K, self.K + 1, dtype=float)
        return np.array([(2 * math.pi * (m + _SPIN_OFFSETS[letter]) / L) ** 2
                         for L, letter in ((self.L1, self.spin[0]), (self.L2, self.spin[1]))])


def _gaussian_sums(model, s_values):
    """sum over the truncated lattice of exp(-s |kappa|^2) for each s, as the
    product of the two circle sums; one exponential over every s and mode."""
    for s in s_values:
        if not (s > 0 and math.isfinite(s)):
            raise ValueError(f"heat time must be finite and positive, got {s!r}")
    neg_s = -np.asarray(s_values, dtype=float)
    sums = np.exp(np.multiply.outer(neg_s, model.mode_energies())).sum(axis=-1)
    return [float(row1) * float(row2) for row1, row2 in sums]


def heat_trace(model, s):
    """tr e^(-s D^2) over the truncated lattice (two spinor components)."""
    return 2.0 * _gaussian_sums(model, [s])[0]


def poisson_heat_trace(model, s):
    """Poisson-summation evaluation of the full (untruncated) heat trace,
    from the images |q| <= 12 of each circle."""
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"heat time must be finite and positive, got {s!r}")
    total = 2.0
    for L, letter in ((model.L1, model.spin[0]), (model.L2, model.spin[1])):
        delta = _SPIN_OFFSETS[letter]
        base = L / (2.0 * math.sqrt(math.pi * s))
        acc = 1.0
        for q in range(1, 13):
            acc += 2.0 * math.cos(2 * math.pi * q * delta) * \
                math.exp(-(q * L) ** 2 / (4 * s))
        total *= base * acc
    return total


def supertrace_constancy(model, s_grid=(0.01, 0.05, 0.1, 0.5, 1.0)):
    """max |Str e^(-s D^2)| and max |d/ds| over a nonempty increasing grid
    (both should be 0)."""
    s_grid = list(s_grid)
    if not s_grid or any(not s1 < s2 for s1, s2 in zip(s_grid, s_grid[1:])):
        raise ValueError("heat-time grid must be nonempty and strictly increasing")
    tr_grading = _rank_two_traces()[0]
    vals = [tr_grading * g for g in _gaussian_sums(model, s_grid)]
    max_abs = max(abs(v) for v in vals)
    max_slope = 0.0
    for (s1, v1), (s2, v2) in zip(zip(s_grid, vals), list(zip(s_grid, vals))[1:]):
        max_slope = max(max_slope, abs(v2 - v1) / abs(s2 - s1))
    return max_abs, max_slope


@lru_cache(maxsize=1)
def _rank_two_traces():
    """tr(grading) and tr(grading c(vol)) of the rank-two representation; the
    second is the Berezin constant."""
    gammas, grading = spinor_representation(2)
    return (complex(np.trace(grading)),
            complex(np.trace(grading @ gammas[0] @ gammas[1])))


def _zero_mode(theta_fourier):
    """The (0, 0) Fourier coefficient of theta''; every coefficient must be
    finite."""
    for q, coeff in theta_fourier.items():
        z = complex(coeff)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"Fourier coefficient {q} of theta is not finite: {coeff!r}")
    return complex(theta_fourier.get((0, 0), 0.0))


def _check_scaling(t_grid):
    for t in t_grid:
        if not (t > 0 and 0 < t * t < math.inf):
            raise ValueError(f"the scaling parameter t must be positive with t^2 a positive "
                             f"finite float, got {t!r}")


def _characters(model, t_grid, f0):
    """t^2 f0 tr(grading c(vol)) sum exp(-t^2 |kappa|^2) for each t of a
    checked grid; no exponential when f0 is 0."""
    if f0 == 0:
        return [0j] * len(t_grid)
    quantum = _rank_two_traces()[1]
    sums = _gaussian_sums(model, [t * t for t in t_grid])
    return [(t * t) * f0 * quantum * g for t, g in zip(t_grid, sums)]


def chern_t_torus(model, t, theta_fourier):
    """Character of the length-one word with entry sigma * (f vol).

    Given theta'' = f vol with f a finite Fourier series, only the one-slot
    curvature block survives; the time-ordered integral collapses by trace
    cyclicity, giving t^2 Str(c(theta'') e^(-t^2 D^2)).  Spectrally only the
    zero mode of f contributes.
    """
    _check_scaling([t])
    return _characters(model, [t], _zero_mode(theta_fourier))[0]


def chern_target(model, theta_fourier):
    """(2 pi i)^(-1) integral of theta'': exact Fourier pairing."""
    f0 = _zero_mode(theta_fourier)
    return f0 * model.area / (2j * math.pi)


@dataclass
class ConvergenceRow:
    t: float
    value: complex
    target: complex
    residual: float
    relative: float


@dataclass
class ConvergenceReport:
    model: TorusModel
    rows: list = field(default_factory=list)

    def as_dict(self):
        return {
            "L1": self.model.L1,
            "L2": self.model.L2,
            "K": self.model.K,
            "spin": self.model.spin,
            "rows": [
                {
                    "t": r.t,
                    "value": [r.value.real, r.value.imag],
                    "target": [r.target.real, r.target.imag],
                    "residual": r.residual,
                    "relative": r.relative,
                }
                for r in self.rows
            ],
        }


def convergence_report(model, theta_fourier, t_grid):
    """Rows (t, Ch_t, |Ch_t - target|, relative), one per t of a nonempty
    grid, in the grid's order."""
    target = chern_target(model, theta_fourier)
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("the t grid must be nonempty")
    _check_scaling(t_grid)
    rows = []
    for t, v in zip(t_grid, _characters(model, t_grid, _zero_mode(theta_fourier))):
        res = abs(v - target)
        rel = res / abs(target) if target else res
        rows.append(ConvergenceRow(float(t), v, target, res, rel))
    return ConvergenceReport(model, rows)
