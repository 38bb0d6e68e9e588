"""Structural small-time limit of the rescaled character, checked against
the characteristic-form side.

The localization formula reads

    lim_{t -> 0} Ch_t(theta_1, ..., theta_N)
        = (2 pi i)^(-d/2) [A-hat(R) ^ rho(theta_1, ..., theta_N)]_top,

with rho the restriction map :func:`chernloc.barcomplex.restrict_i`,
rho(theta_1, ..., theta_N) = (1/N!) theta''_1 ^ ... ^ theta''_N.  At the
boundary fiber a one-slot curvature block acts by wedging with theta'' and
a two-slot block acts by zero, so of all the splittings of the word only
the one into singletons survives.  It wedges theta''_1 ^ ... ^ theta''_N
into the time-one heat element, and its constant time integrand contributes
the simplex volume 1/N!: the left side is the boundary supertrace of rho
times the time-one heat element.  (At positive scaling parameter the series
for the character carries a sign per block and the boundary values of the
one-slot blocks each carry a matching sign; at the boundary the two cancel,
which is why no alternating sign appears.)

Both sides multiply the same rho.  The left reads the heat element's norm
and prefactor, from the elimination determinant; the right reads A-hat(R),
from the log series, so the two stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barcomplex import BarChain, restrict_i
from .mehler import a_hat, coefficient_gap, heat_prefactor, str_zero
from .multiform import FormElement
from .scalars import two_pi_i_inv_pow


@dataclass
class LocalizationReport:
    d: int
    n: int
    lhs: FormElement
    rhs: FormElement
    exact_equal: bool
    residual: float
    # the number of splittings of the word into one- and two-slot blocks,
    # the Fibonacci number F(n + 1); only the all-singleton one survives
    patterns: int
    # a two-slot block is zero at the boundary by construction, so this
    # holds for every report; perfbench still reads it, and it is left out
    # of ``ok`` and ``as_dict``
    vanishing_patterns_zero = True

    @property
    def ok(self):
        return self.exact_equal or self.residual < 1e-12

    def as_dict(self):
        return {
            "d": self.d,
            "word_length": self.n,
            "lhs": self.lhs.canonical_str(),
            "rhs": self.rhs.canonical_str(),
            "exact_equal": self.exact_equal,
            "residual": self.residual,
            "patterns": self.patterns,
            "ok": self.ok,
        }


def limit_theorem_check(d, R, word):
    """Both sides of the localization formula on one restriction rho of
    the word.

    The word may mix degrees: rho is multilinear.  When rho is zero both
    sides are the zero form and neither the heat element nor A-hat is
    built.  Reports exact equality where the inputs are exact and the
    maximal coefficient residual otherwise.
    """
    if d != R.d:
        raise ValueError(f"fiber dimension {d} does not match the "
                         f"{R.d} x {R.d} curvature matrix")
    table = R.table
    rho = restrict_i(BarChain.from_word(table, word))
    if rho.is_zero():
        lhs = rhs = table.zero()
    else:
        lhs = str_zero(heat_prefactor(1, R).scale_prefactor(rho))
        rhs = (a_hat(R) * rho).top_component().scale(two_pi_i_inv_pow(d))

    exact = lhs == rhs
    residual = 0.0
    if not exact:
        residual = coefficient_gap(lhs, rhs)
        exact = residual == 0.0
    patterns, following = 1, 1
    for _ in word:
        patterns, following = following, patterns + following
    return LocalizationReport(d, len(word), lhs, rhs, exact, residual, patterns)
