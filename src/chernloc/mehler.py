"""Gaussian kernels with nilpotent curvature coefficients.

The model fiber is R^d with an antisymmetric matrix R of even nilpotent
2-forms.  The matrix functions of R (sinh(z)/z, z coth z, z csch z, exp)
are coefficient lists summed over one list of powers [I, M, M^2, ...],
which ends because the form algebra is nilpotent.  Determinants and
inverses of Gaussian data come from one Gauss-Jordan elimination over the
commutative local ring of even forms, whose pivots also test that the
numeric part is positive definite (Sylvester's criterion).

Main objects:

* :func:`a_hat` -- det^(1/2)((R/2)/sinh(R/2)) via exp(1/2 tr log ...).
* :func:`mehler_kernel` -- the two-point oscillator heat kernel.
* :func:`heat_element` -- its one-point boundary restriction H_tau(X),
  built from the shared X-X data alone.
* :func:`heat_equation_residual` -- the heat equation for the kernel with a
  formal time parameter, as one symmetric matrix of a quadratic form in
  (1, X, Y); it vanishes exactly.
* :func:`twisted_convolve` -- convolution weighted by exp(-1/2 kappa(X,Y)),
  under which the heat elements form an exact semigroup.
* :func:`str_zero` -- the boundary supertrace (2/i)^(d/2) times top-degree
  extraction at the origin.

The kappa normalization is not hard-coded blindly: :func:`solve_kappa_constant`
re-derives it from the order-R^1 cross-term matching of the factorization
H_tau(X,Y) = H_tau(X-Y) exp(-1/2 kappa(X,Y)) and then checks the full identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .formmatrix import FormMatrix, mat_powers, power_sum
from .multiform import (FormElement, GeneratorTable, exp_nilpotent,
                        inverse_unit, log_one_plus)
from .scalars import (QC, PiScalar, TauPoly, bernoulli_numbers, coerce,
                      two_over_i_pow)

KAPPA_COEFF = Fraction(-1, 2)


@dataclass(frozen=True)
class CurvatureMatrix:
    """Antisymmetric d x d matrix of even nilpotent forms."""

    table: GeneratorTable
    d: int
    mat: FormMatrix

    def __post_init__(self):
        if self.mat.shape != (self.d, self.d):
            raise ValueError("curvature matrix has wrong shape")
        if not self.mat.is_antisymmetric():
            raise ValueError("curvature matrix must be antisymmetric")
        for row in self.mat.rows:
            for e in row:
                for mono in e.terms:
                    if self.table.mono_degree(mono) % 2:
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


# -- scalar helpers -----------------------------------------------------------------


def _inv_scalar(tau):
    if isinstance(tau, TauPoly):
        if len(tau.coeffs) != 1:
            raise ValueError("can only invert tau-monomials")
        (k, v), = tau.coeffs.items()
        return TauPoly({-k: v.inverse()})
    if isinstance(tau, QC):
        return tau.inverse()
    return 1.0 / tau


def _scalar_pow(tau, k):
    if k >= 0:
        out = tau
        for _ in range(k - 1):
            out = out * tau
        return out if k else (TauPoly.const(1) if isinstance(tau, TauPoly) else QC(1))
    inv = _inv_scalar(tau)
    return _scalar_pow(inv, -k)


def _qc_sqrt(x):
    """Exact square root of a nonnegative rational QC, else None."""
    if not isinstance(x, QC) or x.im_num or x.re_num < 0:
        return None
    num, den = x.re_num, x.den
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return QC(Fraction(rn, rd))
    return None


# -- power series over one power list ------------------------------------------------
#
# Each series is a list of coefficients c_k of z^k; a matrix function of M is
# sum_k c_k M^k over the list of powers of M, computed once per kernel.


def _sinhc_coeffs(n):
    """sinh(z)/z = sum z^k / (k+1)! over even k."""
    return [Fraction(1 - k % 2, math.factorial(k + 1)) for k in range(n)]


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


def _mat_log_trace(S):
    """trace log S for S = I + nilpotent."""
    powers = mat_powers(S - FormMatrix.identity(S.table, S.shape[0]))
    acc = S.table.zero()
    for k in range(1, len(powers)):
        acc = acc + powers[k].trace().scale(Fraction(1 if k % 2 else -1, k))
    return acc


def a_hat(R):
    """The characteristic form det^(1/2)((R/2)/sinh(R/2)).

    Computed as exp(-1/2 tr log(sinh(R/2)/(R/2))); even, constant term 1,
    only degrees divisible by four occur.
    """
    powers = mat_powers(R.mat.scale(Fraction(1, 2)))
    S = power_sum(powers, _sinhc_coeffs(len(powers)))
    return exp_nilpotent(_mat_log_trace(S).scale(Fraction(-1, 2)))


# -- determinant and inverse by one elimination -----------------------------------------


def _eliminate(mat):
    """(det, inverse) of a square matrix of even forms.

    Gauss-Jordan without row exchanges over the commutative local ring of
    even forms; each pivot is inverted with :func:`inverse_unit`.  The
    constant terms of the pivots are ratios of leading principal minors of
    the numeric part, so requiring each to be real and positive is
    Sylvester's criterion: a Gaussian form whose numeric part is not
    positive definite raises ValueError.  An exact (QC) pivot is tested
    exactly, at any magnitude; an inexact one to a relative 1e-12.
    """
    table = mat.table
    n = mat.shape[0]
    one, zero = table.one(), table.zero()
    rows = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(mat.rows)]
    det = one
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
        rows[col] = [inv * x for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and not f.is_zero():
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det, FormMatrix(table, [row[n:] for row in rows])


def _det_invsqrt(det):
    """det^(-1/2) split as (scalar, unit-series FormElement)."""
    det0 = coerce(det.constant_term())
    inv0 = QC(1) / det0 if isinstance(det0, QC) else 1.0 / det0
    nil = (det - det.table.scalar(det0)).scale(inv0)   # det/det0 - 1
    inv_sqrt_series = exp_nilpotent(log_one_plus(nil).scale(Fraction(-1, 2)))
    root = _qc_sqrt(inv0) if isinstance(inv0, QC) else None
    scalar = root if root is not None else cmath.sqrt(complex(inv0))
    return scalar, inv_sqrt_series


def gaussian_integral(mat_rows, b):
    """Gaussian integral int exp(-1/2 x^T M x + b.x) dx over R^n.

    ``mat_rows`` is a numeric symmetric positive-definite matrix (entries
    exact or float), ``b`` a numeric vector.  Runs through the same
    elimination as the twisted convolution; returns a complex number
    (2 pi)^(n/2) det(M)^(-1/2) exp(1/2 b^T M^-1 b).
    """
    n = len(b)
    M = FormMatrix.from_scalars(GeneratorTable(2), mat_rows)
    det, inv = _eliminate(M)
    scalar, _ = _det_invsqrt(det)
    quad = 0j
    for i in range(n):
        for j in range(n):
            quad += complex(coerce(b[i]) * inv[i, j].constant_term()
                            * coerce(b[j]))
    return complex(scalar) * cmath.exp(0.5 * quad) * (2 * math.pi) ** (n / 2)


# -- Gaussian kernels -------------------------------------------------------------------


class GaussianKernel:
    """norm * pi^pi_pow * prefactor * exp(-1/2 (X,Y)^T Q (X,Y)).

    ``quad`` is the symmetric 2d x 2d matrix Q with FormElement entries
    whose constant parts are the numeric Gaussian data.  The prefactor is a
    form, constant in X and Y.
    """

    __slots__ = ("table", "d", "norm", "pi_pow", "prefactor", "quad")

    def __init__(self, table, d, norm, pi_pow, prefactor, quad):
        self.table = table
        self.d = d
        self.norm = norm
        self.pi_pow = int(pi_pow)
        self.prefactor = prefactor
        self.quad = quad
        if quad.shape != (2 * d, 2 * d):
            raise ValueError("quadratic form must be (2d) x (2d)")

    # -- block access ------------------------------------------------------
    def _block(self, r0, c0):
        d = self.d
        return FormMatrix(self.table,
                          [[self.quad[r0 + i, c0 + j] for j in range(d)]
                           for i in range(d)])

    def xx_block(self):
        return self._block(0, 0)

    def xy_block(self):
        return self._block(0, self.d)

    def yy_block(self):
        return self._block(self.d, self.d)

    @property
    def is_one_variable(self):
        d = self.d
        for i in range(2 * d):
            for j in range(d, 2 * d):
                if not self.quad[i, j].is_zero():
                    return False
                if not self.quad[j, i].is_zero():
                    return False
        return True

    # -- builders -------------------------------------------------------------
    @classmethod
    def assemble(cls, table, d, norm, pi_pow, prefactor, xx, xy, yy):
        z = FormMatrix.zero(table, d)
        xx = xx or z
        xy = xy or z
        yy = yy or z
        yx = xy.transpose()
        rows = []
        for i in range(d):
            rows.append(list(xx.rows[i]) + list(xy.rows[i]))
        for i in range(d):
            rows.append(list(yx.rows[i]) + list(yy.rows[i]))
        return cls(table, d, norm, pi_pow, prefactor, FormMatrix(table, rows))

    def scale_prefactor(self, form):
        return GaussianKernel(self.table, self.d, self.norm, self.pi_pow,
                              form * self.prefactor, self.quad)

    def mul(self, other):
        """Pointwise product of kernels over the same variables."""
        if other.table is not self.table or other.d != self.d:
            raise ValueError("kernel mismatch")
        return GaussianKernel(self.table, self.d, self.norm * other.norm,
                              self.pi_pow + other.pi_pow,
                              self.prefactor * other.prefactor,
                              self.quad + other.quad)

    def shift_to_difference(self):
        """One-variable f(X) viewed as the two-variable kernel f(X - Y)."""
        if not self.is_one_variable:
            raise ValueError("kernel must be one-variable")
        A = self.xx_block()
        return GaussianKernel.assemble(self.table, self.d, self.norm,
                                       self.pi_pow, self.prefactor,
                                       A, -A, A)

    def __eq__(self, other):
        if not isinstance(other, GaussianKernel):
            return NotImplemented
        return (self.table is other.table and self.d == other.d
                and self.pi_pow == other.pi_pow and self.norm == other.norm
                and self.prefactor == other.prefactor and self.quad == other.quad)

    def __repr__(self):
        return (f"<GaussianKernel d={self.d} norm={self.norm} "
                f"pi^{self.pi_pow} pref={self.prefactor}>")


def _kernel_parts(tau, R, formal):
    """What the one- and two-point kernels share: 1/tau, the powers of
    tau R/2, the norm, the prefactor det^(-1/2)(sinh(tau R/2)/(tau R/2)) and
    the X-X block (1/(2 tau)) (tau R/2) coth(tau R/2)."""
    if formal:
        tau = TauPoly.var(1)
    else:
        tau = QC(Fraction(tau)) if not isinstance(tau, QC) else tau
        if complex(tau).real <= 0:
            raise ValueError("time parameter must be positive")
    d = R.d
    half = QC(Fraction(1, 2))
    powers = mat_powers(R.mat.scale(tau * half))
    n = len(powers)
    inv_tau = _inv_scalar(tau)
    xx = power_sum(powers, _zcoth_coeffs(n)).scale(inv_tau * half)
    det, _ = _eliminate(power_sum(powers, _sinhc_coeffs(n)))
    scalar, prefactor = _det_invsqrt(det)
    norm = scalar * QC(Fraction(1, 4 ** (d // 2))) * _scalar_pow(tau, -(d // 2))
    return inv_tau, powers, norm, prefactor, xx


def mehler_kernel(tau, R, formal=False):
    """Two-point oscillator heat kernel on the model fiber.

    With ``formal=True`` the time parameter is a formal variable and all
    coefficients are Laurent polynomials in it, which supports exact
    differentiation in the heat-equation check.
    """
    inv_tau, powers, norm, prefactor, xx = _kernel_parts(tau, R, formal)
    n = len(powers)
    # exp(M) zcsch(M) is one series in M
    xy = power_sum(powers, _cauchy(_exp_coeffs(n), _zcsch_coeffs(n))) \
        .scale(inv_tau * QC(Fraction(-1, 2)))
    return GaussianKernel.assemble(R.table, R.d, norm, -(R.d // 2), prefactor,
                                   xx, xy, xx)


def heat_element(tau, R, formal=False):
    """One-point heat element H_tau(X), the two-point kernel at Y = 0,
    built without the X-Y and Y-Y blocks."""
    _, _, norm, prefactor, xx = _kernel_parts(tau, R, formal)
    return GaussianKernel.assemble(R.table, R.d, norm, -(R.d // 2), prefactor,
                                   xx, None, None)


def kappa_form(X, Y, R, coeff=None):
    """The curvature pairing kappa(X, Y) as a 2-form: coeff * sum R_ij X_i Y_j."""
    c = Fraction(coeff if coeff is not None else KAPPA_COEFF)
    out = R.table.zero()
    for i in range(R.d):
        for j in range(R.d):
            w = c * Fraction(X[i]) * Fraction(Y[j]) if not isinstance(X[i], float) \
                else c * X[i] * Y[j]
            if w:
                out += R.entry(i, j).scale(w)
    return out


def twist_factor(R, coeff=None):
    """The kernel exp(-1/2 kappa(X, Y)) as a Gaussian with zero diagonal blocks."""
    c = Fraction(coeff if coeff is not None else KAPPA_COEFF)
    xy = R.mat.scale(QC(c) * QC(Fraction(1, 2)))
    return GaussianKernel.assemble(R.table, R.d, QC(1), 0, R.table.one(),
                                   None, xy, None)


def twisted_convolve(f, g, R, kappa_coeff=None):
    """(f * g)(X) = int f(X-Y) g(Y) exp(-1/2 kappa(X,Y)) dY, exactly.

    Gaussian integration in Y: with exponent -1/2 Y^T Myy Y + J.Y the result
    carries (2 pi)^(d/2) det(Myy)^(-1/2) exp(1/2 J^T Myy^-1 J), determinant
    and inverse from one elimination over the even forms.
    """
    if not (f.is_one_variable and g.is_one_variable):
        raise ValueError("twisted convolution is defined for one-variable kernels")
    if f.table is not g.table or f.d != g.d:
        raise ValueError("kernel mismatch")
    table, d = f.table, f.d
    c = Fraction(kappa_coeff if kappa_coeff is not None else KAPPA_COEFF)
    Af = f.xx_block()
    Ag = g.xx_block()
    Mxx = Af
    Mxy = (-Af) + R.mat.scale(QC(c) * QC(Fraction(1, 2)))
    Myy = Af + Ag
    det, inv = _eliminate(Myy)
    scalar, series = _det_invsqrt(det)
    xx_out = Mxx - (Mxy @ inv @ Mxy.transpose())
    norm = f.norm * g.norm * QC(2 ** (d // 2)) * scalar
    pref = f.prefactor * g.prefactor * series
    return GaussianKernel.assemble(table, d, norm,
                                   f.pi_pow + g.pi_pow + d // 2, pref,
                                   xx_out, None, None)


def solve_kappa_constant(tau=Fraction(1, 2), R=None):
    """Derive the kappa normalization from the order-R^1 cross-term matching
    of H_tau(X,Y) = H_tau(X-Y) exp(-1/2 kappa(X,Y)), then verify the full
    factorization with the derived constant.

    Returns the Fraction c with kappa(X,Y) = c * sum R_ij X_i Y_j.
    """
    if R is None:
        table = GeneratorTable(2)
        table.add_generator("w", 2)
        w = table.gen("w")
        R = CurvatureMatrix(table, 2, FormMatrix(table, [[table.zero(), w],
                                                         [-w, table.zero()]]))
    Ht = mehler_kernel(tau, R)
    H = heat_element(tau, R)
    shifted = H.shift_to_difference()
    delta = Ht.xy_block() - shifted.xy_block()
    # order-R^1 part lives in the degree-2 components of the entries
    lam = None
    for i in range(R.d):
        for j in range(R.d):
            target = delta[i, j].homogeneous_parts().get(2)
            source = R.entry(i, j)
            if target is None or source.is_zero():
                continue
            for mono, rc in source.terms.items():
                tc = target.coefficient(mono)
                ratio = tc / rc if isinstance(tc, QC) else complex(tc) / complex(rc)
                if lam is None:
                    lam = ratio
                elif lam != ratio:
                    raise ArithmeticError("cross term is not proportional to R")
    if lam is None:
        raise ArithmeticError("degenerate curvature; cannot solve")
    if not isinstance(lam, QC) or lam.im != 0:
        raise ArithmeticError("cross-term ratio is not rational")
    # delta = (c/2) R at order R^1
    c = Fraction(2) * lam.re
    # no further freedom: the full factorization must hold exactly
    candidate = shifted.mul(twist_factor(R, c))
    if candidate != Ht:
        raise ArithmeticError("order-R^1 constant does not extend to all orders")
    return c


def kernel_max_residual(a, b):
    """Largest coefficient deviation between two kernels (0.0 when equal).

    Compares normalization, prefactor and quadratic-form data coefficient
    by coefficient after numeric evaluation; pi powers must agree.
    """
    if a.pi_pow != b.pi_pow or a.d != b.d:
        return float("inf")
    worst = abs(complex(_num(a.norm)) - complex(_num(b.norm)))

    def form_delta(f, g):
        out = 0.0
        for mono in set(f.terms) | set(g.terms):
            ca = f.terms.get(mono, QC(0))
            cb = g.terms.get(mono, QC(0))
            out = max(out, abs(complex(_num(ca)) - complex(_num(cb))))
        return out

    worst = max(worst, form_delta(a.prefactor, b.prefactor))
    for i in range(2 * a.d):
        for j in range(2 * a.d):
            worst = max(worst, form_delta(a.quad[i, j], b.quad[i, j]))
    return worst


def _num(x):
    if isinstance(x, TauPoly):
        raise TypeError("cannot reduce a formal time parameter to a number")
    return complex(x)


def str_zero(x):
    """Boundary supertrace: evaluate at the origin, scale by (2/i)^(d/2),
    extract the top-degree coefficient (the single-fiber model of the
    integral over the base).

    Accepts a one-variable GaussianKernel or a plain FormElement.  Returns a
    top-degree FormElement; kernel input yields PiScalar coefficients that
    carry the pi power of the normalization.
    """
    if isinstance(x, GaussianKernel):
        factor = PiScalar(x.norm, x.pi_pow) * two_over_i_pow(x.d)
        return x.prefactor.top_component().scale(factor)
    return x.top_component().scale(two_over_i_pow(x.table.top_degree))


# -- heat equation ------------------------------------------------------------------


def _tau_derivative_form(form):
    out = {}
    for mono, c in form.terms.items():
        if isinstance(c, TauPoly):
            dc = c.derivative()
            if dc.coeffs:
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
    H = mehler_kernel(None, R, formal=True)
    Q = H.quad
    P = H.prefactor
    zero = table.zero()
    quarter_R = R.mat.scale(Fraction(1, 4))
    pad = (zero,) * d
    L = -FormMatrix(table, [[q + r for q, r in zip(Q.rows[i], quarter_R.rows[i] + pad)]
                            for i in range(d)])
    # sum_i d(w_i)/dX_i = -sum_i Q_ii, since R_ii = 0
    constant = (P.scale(_norm_log_derivative(H.norm)) + _tau_derivative_form(P)
                + P * H.xx_block().trace())
    quad = (Q.map_entries(_tau_derivative_form).scale(Fraction(-1, 2))
            - L.transpose() @ L).scale_form(P)
    rows = [[constant] + [zero] * (2 * d)]
    rows += [[zero] + list(row) for row in quad.rows]
    return FormMatrix(table, rows)


def _norm_log_derivative(norm):
    if isinstance(norm, TauPoly):
        return norm.derivative() / norm
    raise TypeError("heat-equation check needs a formal time parameter")
