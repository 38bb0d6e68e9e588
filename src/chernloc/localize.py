"""Structural small-time limit of the rescaled character, checked against
the characteristic-form side.

At the boundary fiber the one-slot curvature blocks act by wedging with
theta'' and the two-slot blocks act by zero, so a splitting with any
two-slot block contributes exactly nothing.  The all-singleton splitting
leaves theta''_1 ^ ... ^ theta''_N wedged into the time-one heat element;
the time integrand is constant and contributes the simplex volume 1/N!.
The resulting top form must coincide with

    (2 pi i)^(-d/2) (1/N!) [A-hat(R) ^ theta''_1 ^ ... ^ theta''_N]_top,

computed by an independent series path.  (At positive scaling parameter the
series for the character carries a sign per block and the boundary values
of the one-slot blocks each carry a matching sign; at the boundary the two
cancel, which is why no alternating sign appears below.)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .mehler import (CurvatureMatrix, a_hat, coefficient_gap, heat_prefactor,
                     str_zero)
from .multiform import FormElement
from .scalars import QC, two_pi_i_inv_pow


def symbol_of_F(*thetas):
    """Boundary symbol of a curvature block.

    One homogeneous argument theta = theta' + sigma theta'' maps to the
    operator of wedging by theta'' (returned as the form theta''); two
    arguments map to zero.  More slots are not defined.
    """
    if len(thetas) == 1:
        return thetas[0].split_sigma()[1]
    if len(thetas) == 2:
        return thetas[0].table.zero()
    raise ValueError("curvature blocks take one or two slots")


@dataclass
class LocalizationCase:
    """One admissible splitting of a word over a curvature background.

    The gap pattern is the increasing index sequence i_1 < ... < i_k = N
    with steps of size one or two; larger steps vanish identically and are
    rejected.
    """

    d: int
    R: CurvatureMatrix
    word: tuple
    gaps: tuple

    def __post_init__(self):
        n = len(self.word)
        prev = 0
        for i in self.gaps:
            if i - prev not in (1, 2):
                raise ValueError("invalid gap pattern: steps must be one or two")
            prev = i
        if self.gaps and prev != n:
            raise ValueError("invalid gap pattern: must consume the whole word")
        if n and not self.gaps:
            raise ValueError("invalid gap pattern: empty pattern on a nonempty word")
        for theta in self.word:
            theta.degree()   # raises on non-homogeneous entries


def localized_term(case):
    """Boundary value of one splitting.

    Splittings with a two-slot block return the zero form.  The
    all-singleton splitting returns
    str_zero(theta''_1 ^ ... ^ theta''_N ^ H_1) times the simplex volume 1/N!.
    """
    table = case.R.table
    n = len(case.word)
    if len(case.gaps) < n:
        return table.zero()
    wedge = table.one()
    for theta in case.word:
        wedge = wedge * symbol_of_F(theta)
        if wedge.is_zero():
            return table.zero()
    kernel = heat_prefactor(1, case.R).scale_prefactor(wedge)
    return str_zero(kernel).scale(QC(1) / factorial(n))


def _gap_patterns(n):
    """All index sequences with steps of one or two consuming the word."""
    if n == 0:
        yield ()
        return
    def rec(prefix, pos):
        if pos == n:
            yield tuple(prefix)
            return
        for step in (1, 2):
            if pos + step <= n:
                yield from rec(prefix + [pos + step], pos + step)
    yield from rec([], 0)


@dataclass
class LocalizationReport:
    d: int
    n: int
    lhs: FormElement
    rhs: FormElement
    exact_equal: bool
    residual: float
    patterns: int
    vanishing_patterns_zero: bool

    @property
    def ok(self):
        return self.vanishing_patterns_zero and (
            self.exact_equal or self.residual < 1e-12)

    def as_dict(self):
        return {
            "d": self.d,
            "word_length": self.n,
            "lhs": self.lhs.canonical_str(),
            "rhs": self.rhs.canonical_str(),
            "exact_equal": self.exact_equal,
            "residual": self.residual,
            "patterns": self.patterns,
            "vanishing_patterns_zero": self.vanishing_patterns_zero,
            "ok": self.ok,
        }


def limit_theorem_check(d, R, word):
    """Sum the boundary values over all admissible splittings and compare
    with the independently computed characteristic-form side.

    Mixed words are decomposed into homogeneous runs first.  Reports exact
    equality where the inputs are exact and the maximal coefficient
    residual otherwise.
    """
    if d != R.d:
        raise ValueError(f"fiber dimension {d} does not match the "
                         f"{R.d} x {R.d} curvature matrix")
    table = R.table
    lhs = table.zero()
    patterns = 0
    zeros_ok = True
    hom_words = _homogeneous_words(table, word)
    for coeff, hw in hom_words:
        n = len(hw)
        for gaps in _gap_patterns(n):
            case = LocalizationCase(d, R, hw, gaps)
            value = localized_term(case)
            patterns += 1
            if len(gaps) < n and not value.is_zero():
                zeros_ok = False
            lhs += value.scale(coeff)

    rhs_form = a_hat(R)
    for theta in word:
        rhs_form = rhs_form * theta.split_sigma()[1]
    constant = two_pi_i_inv_pow(d) * QC(1, 0) / factorial(len(word))
    rhs = rhs_form.top_component().scale(constant)

    exact = lhs == rhs
    residual = 0.0
    if not exact:
        residual = coefficient_gap(lhs, rhs)
        exact = residual == 0.0
    return LocalizationReport(d, len(word), lhs, rhs, exact, residual,
                              patterns, zeros_ok)


def _homogeneous_words(table, word):
    weighted = [(QC(1), ())]
    for theta in word:
        parts = theta.homogeneous_parts()
        new = []
        for coeff, prefix in weighted:
            for _, comp in parts.items():
                new.append((coeff, prefix + (comp,)))
        weighted = new
    return weighted
