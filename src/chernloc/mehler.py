"""Gaussian kernels with nilpotent curvature coefficients.

The model fiber is R^d with an antisymmetric matrix R of even nilpotent
2-forms.  The matrix functions of M = tau R/2 (sinh(z)/z, z coth z,
z csch z, exp, log(sinh(z)/z)) are coefficient lists summed over one list
of powers [I, M^2, M^4, ...], which ends because the form algebra is
nilpotent; they are even in M, and the odd part of exp(z) z csch(z) costs
one more product with M.  M^2 (M antisymmetric) and the heat equation's
L^T L are symmetric products of even forms, so each is formed on its
triangle i <= j and mirrored (:meth:`FormMatrix.symmetric_product`).
Each kernel does only the matrix work its reader reads: the boundary
supertrace reads the norm and prefactor alone, and only the two-point
kernel builds the X-Y block.  A Gaussian kernel holds its quadratic form
as d x d blocks: X-X, and for a two-point kernel X-Y, its Y-Y block being
its X-X block.  Determinants and solves of Gaussian data come from one
Gauss-Jordan elimination over the commutative local ring of even forms:
it returns the determinant and M^-1 B for the right-hand side B its
caller reads (none when only the determinant is needed, and then it
updates only the rows below each pivot), and its pivots also test that
the numeric part is positive definite (Sylvester's criterion).

Main objects:

* :func:`a_hat` -- det^(1/2)((R/2)/sinh(R/2)) as exp(-1/2 tr log(sinh(M)/M))
  with M = R/2, the log series summed over the powers of M^2; it shares no
  determinant with the kernels.
* :func:`mehler_kernel` -- the two-point oscillator heat kernel.
* :func:`heat_element` -- its one-point boundary restriction H_tau(X),
  built from the shared X-X data alone.
* :func:`heat_prefactor` -- H_tau without its quadratic form: the norm and
  prefactor, what the localization check reads.
* :func:`heat_equation_residual` -- the heat equation for the kernel with a
  formal time parameter, as one symmetric matrix of a quadratic form in
  (1, X, Y); it vanishes exactly.
* :func:`twisted_convolve` -- convolution weighted by exp(-1/2 kappa(X,Y)),
  under which the heat elements form an exact semigroup.
* :func:`str_zero` -- the boundary supertrace (2/i)^(d/2) times top-degree
  extraction at the origin.

The kappa normalization is not hard-coded blindly: :func:`solve_kappa_constant`
derives it from the factorization H_tau(X,Y) = H_tau(X-Y) exp(-1/2 kappa(X,Y)).
Both sides share the norm, prefactor and X-X block, so the factorization
constrains the X-Y block alone: X-Y + X-X must be (c/2) R, c read off one
coefficient and then checked on every entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .formmatrix import FormMatrix, mat_powers, power_sum
from .multiform import (FormElement, GeneratorTable, _series, exp_nilpotent,
                        inverse_unit)
from .scalars import (QC, QC_ZERO, PiScalar, TauPoly, bernoulli_numbers,
                      coerce, is_exact, two_over_i_pow)

KAPPA_COEFF = Fraction(-1, 2)


@dataclass(frozen=True)
class CurvatureMatrix:
    """Antisymmetric d x d matrix of even nilpotent forms."""

    table: GeneratorTable
    d: int
    mat: FormMatrix

    def __post_init__(self):
        if self.d != self.table.top_degree:
            raise ValueError(f"curvature matrix is {self.d} x {self.d} but the "
                             f"table's top degree is {self.table.top_degree}")
        if self.mat.shape != (self.d, self.d):
            raise ValueError("curvature matrix has wrong shape")
        if not self.mat.is_antisymmetric():
            raise ValueError("curvature matrix must be antisymmetric")
        for i, row in enumerate(self.mat.rows):
            for j, e in enumerate(row):
                if () in e.terms:
                    raise ValueError(f"curvature entry ({i}, {j}) = {e} has a "
                                     "constant term, so it is not nilpotent")
                if any(self.table.mono_degree(mono) % 2 for mono in e.terms):
                    raise ValueError("curvature entries must be even forms")

    @classmethod
    def zero(cls, table, d):
        return cls(table, d, FormMatrix.zero(table, d))

    @classmethod
    def from_rows(cls, table, rows):
        mat = FormMatrix.parse(table, rows)
        return cls(table, mat.shape[0], mat)

    def entry(self, i, j):
        return self.mat[i, j]

    def is_zero(self):
        return self.mat.is_zero()


# -- power series over one power list ------------------------------------------------
#
# Each series is a list of coefficients c_k of z^k.  sinh(z)/z, z coth z,
# z csch z and log(sinh(z)/z) are even, so a matrix function of M is
# sum_k c_2k (M^2)^k over the one list of powers of M^2, computed once per
# kernel; the odd part of exp(z) z csch(z) is M times such a sum.


def _sinhc_coeffs(n):
    """sinh(z)/z = sum z^k / (k+1)! over even k."""
    return [Fraction(1 - k % 2, math.factorial(k + 1)) for k in range(n)]


def _log_sinhc_coeffs(n):
    """log(sinh(z)/z) = sum 2^k B_k z^k / (k k!) over even k >= 2."""
    b = bernoulli_numbers(n)
    return [Fraction(0)] + [Fraction(2 ** k * (1 - k % 2)) * b[k] / (k * math.factorial(k))
                            for k in range(1, n)]


def _zcoth_coeffs(n):
    """z coth z = sum 2^k B_k z^k / k! over even k."""
    b = bernoulli_numbers(n)
    return [Fraction(2 ** k * (1 - k % 2)) * b[k] / math.factorial(k)
            for k in range(n)]


def _zcsch_coeffs(n):
    """z csch z = sum (2 - 2^k) B_k z^k / k! over even k."""
    b = bernoulli_numbers(n)
    return [Fraction((2 - 2 ** k) * (1 - k % 2)) * b[k] / math.factorial(k)
            for k in range(n)]


def _exp_coeffs(n):
    return [Fraction(1, math.factorial(k)) for k in range(n)]


def _cauchy(a, b):
    """Coefficients of the product of two series, as many as ``a`` has."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(len(a))]


def a_hat(R):
    """The characteristic form det^(1/2)((R/2)/sinh(R/2)).

    Computed as exp(-1/2 tr log(sinh(M)/M)) for M = R/2, the log series
    summed as sum_k c_2k tr M^2k over the powers of M^2.  It is even in R
    (a_hat(-R) == a_hat(R)) with constant term 1; only when every entry of R
    is a 2-form are its degrees all divisible by four.
    """
    M = R.mat.scale(Fraction(1, 2))
    powers = mat_powers(M.symmetric_product(M))
    log_a_hat = R.table.zero()
    for power, c in zip(powers[1:], _log_sinhc_coeffs(2 * len(powers))[2::2]):
        log_a_hat += power.trace().scale(c * Fraction(-1, 2))
    return exp_nilpotent(log_a_hat)


# -- determinant and solve by one elimination -------------------------------------------


def _eliminate(mat, rhs):
    """(det mat, mat^-1 rhs) for a square matrix of even forms.

    ``rhs`` has as many rows as ``mat`` and any number of columns, none
    when only the determinant is read.  Gauss-Jordan on [mat | rhs] without
    row exchanges over the commutative local ring of even forms; each pivot
    is inverted with :func:`inverse_unit`, and a step touches only the
    columns right of its pivot, the only ones read later.  With no columns
    in ``rhs`` a step updates only the rows below its pivot: the rows above
    feed no later pivot, so the pivots, and the determinant, are those of
    the full elimination, which keeps them only for the solve.  The constant
    terms of the pivots are ratios of leading principal minors of the
    numeric part, so requiring each to be real and positive is Sylvester's
    criterion: a Gaussian form whose numeric part is not positive definite
    raises ValueError.  An exact (QC) pivot is tested exactly, at any
    magnitude; an inexact one to a relative 1e-12.
    """
    n = mat.shape[0]
    if rhs.shape[0] != n:
        raise ValueError("right-hand side must have as many rows as the matrix")
    rows = [list(a) + list(b) for a, b in zip(mat.rows, rhs.rows)]
    solve = rhs.shape[1] > 0
    det = mat.table.one()
    for col in range(n):
        pivot = rows[col][col]
        c0 = pivot.constant_term()
        if isinstance(c0, QC):
            positive = not c0.im_num and c0.re_num > 0
        else:
            c0 = complex(c0)
            positive = abs(c0.imag) < 1e-12 * max(1.0, abs(c0)) and c0.real > 0
        if not positive:
            raise ValueError("numeric part of the Gaussian form is not "
                             "positive definite")
        det = det * pivot
        inv = inverse_unit(pivot)
        right = [inv * x for x in rows[col][col + 1:]]
        rows[col][col + 1:] = right
        for r in range(0 if solve else col + 1, n):
            f = rows[r][col]
            if r != col and not f.is_zero():
                rows[r][col + 1:] = [x - f * y for x, y in zip(rows[r][col + 1:], right)]
    return det, FormMatrix(mat.table, [row[n:] for row in rows])


def _qc_sqrt(x):
    """Exact square root of a nonnegative rational QC, else None."""
    if not isinstance(x, QC) or x.im_num or x.re_num < 0:
        return None
    num, den = x.re_num, x.den
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return QC(Fraction(rn, rd))
    return None


def _det_invsqrt(det):
    """det^(-1/2) split as (scalar, unit-series FormElement): with
    det = det0 (1 + u), the series (1 + u)^(-1/2) = sum_k binom(-1/2, k) u^k."""
    det0 = coerce(det.constant_term())
    inv0 = QC(1) / det0 if isinstance(det0, QC) else 1.0 / det0
    nil = (det - det.table.scalar(det0)).scale(inv0)   # det/det0 - 1
    inv_sqrt_series = _series(nil, lambda k: Fraction((-1) ** k * math.comb(2 * k, k), 4 ** k),
                              det.table.one())
    root = _qc_sqrt(inv0) if isinstance(inv0, QC) else None
    scalar = root if root is not None else cmath.sqrt(complex(inv0))
    return scalar, inv_sqrt_series


# -- Gaussian kernels -------------------------------------------------------------------


class GaussianKernel:
    """norm * pi^pi_pow * prefactor * exp(-1/2 (X,Y)^T Q (X,Y)).

    Q = [[xx, xy], [xy^T, xx]] is held as its d x d FormMatrix blocks, whose
    constant parts are the numeric Gaussian data; every two-variable kernel
    is a :func:`mehler_kernel`, whose Y-Y block is its X-X block.  A
    one-variable kernel f(X) has ``xy`` None; :func:`heat_prefactor` also
    leaves ``xx`` None, for the boundary supertrace alone.  The prefactor is
    a form, constant in X and Y.
    """

    __slots__ = ("table", "d", "norm", "pi_pow", "prefactor", "xx", "xy")

    def __init__(self, table, d, norm, pi_pow, prefactor, xx, xy=None):
        if any(b is not None and b.shape != (d, d) for b in (xx, xy)):
            raise ValueError("kernel blocks must be d x d")
        self.table = table
        self.d = d
        self.norm = norm
        self.pi_pow = int(pi_pow)
        self.prefactor = prefactor
        self.xx = xx
        self.xy = xy

    @property
    def is_one_variable(self):
        return self.xy is None

    def scale_prefactor(self, form):
        return GaussianKernel(self.table, self.d, self.norm, self.pi_pow,
                              form * self.prefactor, self.xx, self.xy)

    def __eq__(self, other):
        if not isinstance(other, GaussianKernel):
            return NotImplemented
        return (self.table is other.table and self.d == other.d
                and self.pi_pow == other.pi_pow and self.norm == other.norm
                and self.prefactor == other.prefactor and self.xx == other.xx
                and self.xy == other.xy)

    def __repr__(self):
        return (f"<GaussianKernel d={self.d} norm={self.norm} "
                f"pi^{self.pi_pow} pref={self.prefactor}>")


def _require_exact(R, reader):
    """Raise ValueError naming the first curvature entry with an inexact
    coefficient, which ``reader`` cannot take."""
    for i, row in enumerate(R.mat.rows):
        for j, e in enumerate(row):
            if not all(map(is_exact, e.terms.values())):
                raise ValueError(f"curvature entry ({i}, {j}) = {e} is inexact; "
                                 f"{reader} needs exact coefficients")


def _kernel_parts(tau, R):
    """What the one- and two-point kernels share: 1/tau, M = tau R/2, the
    even powers of M, the norm and the prefactor det^(-1/2)(sinh(M)/M).
    The boundary supertrace reads the norm and prefactor alone.  A
    :class:`TauPoly` time is formal, and needs exact curvature."""
    if isinstance(tau, TauPoly):
        _require_exact(R, "a formal time")
    else:
        tau = QC(Fraction(tau)) if not isinstance(tau, QC) else tau
        if complex(tau).real <= 0:
            raise ValueError("time parameter must be positive")
    d = R.d
    M = R.mat.scale(tau * QC(Fraction(1, 2)))
    even = mat_powers(M.symmetric_product(M))
    det, _ = _eliminate(power_sum(even, _sinhc_coeffs(2 * len(even))[::2]),
                        FormMatrix.zero(R.table, d, 0))
    scalar, prefactor = _det_invsqrt(det)
    norm = scalar * QC(Fraction(1, 4 ** (d // 2))) * tau ** -(d // 2)
    return tau ** -1, M, even, norm, prefactor


def _xx_block(inv_tau, even):
    """The X-X block (1/(2 tau)) (tau R/2) coth(tau R/2)."""
    return power_sum(even, _zcoth_coeffs(2 * len(even))[::2]) \
        .scale(inv_tau * QC(Fraction(1, 2)))


def mehler_kernel(tau, R):
    """Two-point oscillator heat kernel on the model fiber.

    With the formal time ``TauPoly.var(1)`` all coefficients are Laurent
    polynomials in it, which supports exact differentiation in the
    heat-equation check.
    """
    inv_tau, M, even, norm, prefactor = _kernel_parts(tau, R)
    n = 2 * len(even)
    # exp(M) zcsch(M) is one series in M; its odd part is M times a series in M^2
    c = _cauchy(_exp_coeffs(n), _zcsch_coeffs(n))
    xy = (power_sum(even, c[::2]) + M @ power_sum(even, c[1::2])) \
        .scale(inv_tau * QC(Fraction(-1, 2)))
    xx = _xx_block(inv_tau, even)
    return GaussianKernel(R.table, R.d, norm, -(R.d // 2), prefactor, xx, xy)


def heat_element(tau, R):
    """One-point heat element H_tau(X), the two-point kernel at Y = 0,
    built without the X-Y block."""
    inv_tau, _, even, norm, prefactor = _kernel_parts(tau, R)
    return GaussianKernel(R.table, R.d, norm, -(R.d // 2), prefactor,
                          _xx_block(inv_tau, even))


def heat_prefactor(tau, R):
    """H_tau without its quadratic form (``xx`` None): the norm and
    prefactor, all that :func:`str_zero` reads of it."""
    _, _, _, norm, prefactor = _kernel_parts(tau, R)
    return GaussianKernel(R.table, R.d, norm, -(R.d // 2), prefactor, None)


def twisted_convolve(f, g, R, kappa_coeff=None):
    """(f * g)(X) = int f(X-Y) g(Y) exp(-1/2 kappa(X,Y)) dY, exactly.

    Gaussian integration in Y: with exponent -1/2 Y^T Myy Y + J.Y the result
    carries (2 pi)^(d/2) det(Myy)^(-1/2) exp(1/2 J^T Myy^-1 J), determinant
    and Myy^-1 Mxy^T from one elimination over the even forms.
    """
    if not (f.is_one_variable and g.is_one_variable):
        raise ValueError("twisted convolution is defined for one-variable kernels")
    if f.table is not g.table or f.d != g.d:
        raise ValueError("kernel mismatch")
    table, d = f.table, f.d
    c = Fraction(kappa_coeff if kappa_coeff is not None else KAPPA_COEFF)
    Af = f.xx
    Mxy = (-Af) + R.mat.scale(QC(c) * QC(Fraction(1, 2)))
    det, solved = _eliminate(Af + g.xx, Mxy.transpose())
    scalar, series = _det_invsqrt(det)
    norm = f.norm * g.norm * QC(2 ** (d // 2)) * scalar
    pref = f.prefactor * g.prefactor * series
    return GaussianKernel(table, d, norm, f.pi_pow + g.pi_pow + d // 2, pref,
                          Af - Mxy @ solved)


def solve_kappa_constant(R=None):
    """Derive the kappa normalization from the factorization
    H_tau(X,Y) = H_tau(X-Y) exp(-1/2 kappa(X,Y)), at tau = 1/2.

    Both sides share the norm, prefactor and X-X block, and the X-Y block of
    the right side is -X-X + (c/2) R, so the factorization holds exactly when
    X-Y + X-X == (c/2) R.  c is read off one coefficient and then required
    on every entry.  Returns the Fraction c with
    kappa(X,Y) = c * sum R_ij X_i Y_j.
    """
    if R is None:
        table = GeneratorTable(2)
        table.add_generator("w", 2)
        w = table.gen("w")
        R = CurvatureMatrix(table, 2, FormMatrix(table, [[table.zero(), w],
                                                         [-w, table.zero()]]))
    _require_exact(R, "the kappa derivation")
    Ht = mehler_kernel(Fraction(1, 2), R)
    delta = Ht.xy + Ht.xx
    lam = next((delta[i, j].coefficient(mono) / rc
                for i in range(R.d) for j in range(R.d)
                for mono, rc in R.entry(i, j).terms.items()), None)
    if lam is None:
        raise ArithmeticError("degenerate curvature; cannot solve")
    if lam.im != 0:
        raise ArithmeticError("X-Y block ratio is not rational")
    c = Fraction(2) * lam.re
    if delta != R.mat.scale(c / 2):
        raise ArithmeticError(f"X-Y block is not (c/2) R - X-X for the c = {c} "
                              "read off its first coefficient")
    return c


def coefficient_gap(f, g):
    """Largest |f_m - g_m| over the monomials of two forms after numeric
    evaluation (0.0 when they are equal)."""
    ft, gt = f.terms, g.terms
    return max((abs(complex(ft.get(m, QC_ZERO)) - complex(gt.get(m, QC_ZERO)))
                for m in ft.keys() | gt.keys()), default=0.0)


def kernel_max_residual(a, b):
    """Largest coefficient deviation between two kernels (0.0 when equal).

    Compares normalization, prefactor and quadratic-form blocks coefficient
    by coefficient after numeric evaluation; pi powers and variables must
    agree.
    """
    if (a.pi_pow != b.pi_pow or a.d != b.d
            or a.is_one_variable != b.is_one_variable):
        return float("inf")
    pairs = zip((a.xx, a.xy), (b.xx, b.xy))
    return max(abs(complex(a.norm) - complex(b.norm)),
               coefficient_gap(a.prefactor, b.prefactor),
               *(coefficient_gap(p, q) for x, y in pairs if x is not None
                 for rp, rq in zip(x.rows, y.rows) for p, q in zip(rp, rq)))


def str_zero(x):
    """Boundary supertrace of a one-variable GaussianKernel: evaluate at the
    origin, scale by (2/i)^(d/2), extract the top-degree coefficient (the
    single-fiber model of the integral over the base).

    Returns a top-degree FormElement whose PiScalar coefficients carry the
    pi power of the normalization (their own coefficients are TauPoly at a
    formal time).
    """
    top = x.prefactor.top_component().scale(x.norm * two_over_i_pow(x.d))
    return FormElement._wrap(x.table, {m: PiScalar(c, x.pi_pow) for m, c in top})


# -- heat equation ------------------------------------------------------------------


def _tau_derivative_form(form):
    out = {}
    for mono, c in form.terms.items():
        if isinstance(c, TauPoly):
            dc = c.derivative()
            if dc.terms:
                out[mono] = dc
    return FormElement(form.table, out)


def heat_equation_residual(R):
    """Residual of d/dtau H = sum_i (d/dX_i - 1/4 (R X)_i)^2 H, computed
    symbolically with a formal time parameter.

    With H = N P exp(-1/2 v^T Q v), v = (X, Y), the residual divided by
    N exp(-1/2 v^T Q v) is a quadratic polynomial in (1, X, Y); it is
    returned as its symmetric (2d+1) x (2d+1) FormMatrix, whose vanishing is
    the heat equation.  Every nonzero entry is an exact failure witness.
    The constant entry is P N'/N + P' + P tr Q_XX and the quadratic block
    (-1/2 Q' - L^T L) P, where ' is d/dtau and w = L v are the linear forms
    with (d/dX_i - 1/4 (R X)_i) H = w_i H.
    """
    table, d = R.table, R.d
    H = mehler_kernel(TauPoly.var(1), R)
    xx, xy = H.xx, H.xy
    Q = FormMatrix(table, [a + b for a, b in zip(xx.rows, xy.rows)]
                   + [a + b for a, b in zip(xy.transpose().rows, xx.rows)])
    P = H.prefactor
    zero = table.zero()
    L = -FormMatrix(table, [a + b for a, b in
                            zip((xx + R.mat.scale(Fraction(1, 4))).rows, xy.rows)])
    # sum_i d(w_i)/dX_i = -sum_i Q_ii, since R_ii = 0
    constant = (P.scale(H.norm.derivative() / H.norm) + _tau_derivative_form(P)
                + P * xx.trace())
    quad = (Q.map_entries(_tau_derivative_form).scale(Fraction(-1, 2))
            - L.transpose().symmetric_product(L)).scale_form(P)
    rows = [[constant] + [zero] * (2 * d)]
    rows += [[zero] + list(row) for row in quad.rows]
    return FormMatrix(table, rows)
