import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chernloc.formmatrix import FormMatrix, det_leibniz
from chernloc.mehler import (KAPPA_COEFF, CurvatureMatrix, GaussianKernel,
                             a_hat, heat_element,
                             heat_equation_residual, heat_prefactor,
                             kernel_max_residual, mehler_kernel,
                             solve_kappa_constant, str_zero, twisted_convolve)
from chernloc.multiform import GeneratorTable, exp_nilpotent
from chernloc.scalars import (QC, PiScalar, TauPoly, is_exact, two_over_i_pow,
                              two_pi_i_inv_pow)

from conftest import random_antisymmetric_curvature


# -- the characteristic form ---------------------------------------------------------


def test_a_hat_of_zero_curvature(curvature_d2):
    table, _ = curvature_d2
    assert a_hat(CurvatureMatrix.zero(table, 2)) == table.one()


def test_a_hat_degree_four_coefficient(curvature_d4):
    # independent oracle: the quadratic term of (1/2) tr log(x/sinh x) at
    # x = R/2 is -tr(R^2)/48, evaluated here by a direct double loop
    table, R = curvature_d4
    tr_R2 = table.zero()
    for i in range(4):
        for j in range(4):
            tr_R2 = tr_R2 + R.entry(i, j) * R.entry(j, i)
    expected = table.one() + tr_R2.scale(Fraction(-1, 48))
    assert a_hat(R) == expected


def test_a_hat_degrees_multiple_of_four(curvature_d4):
    table, R = curvature_d4
    ah = a_hat(R)
    assert ah.constant_term() == QC(1)
    for mono in ah.terms:
        assert table.mono_degree(mono) % 4 == 0


def test_a_hat_random_curvatures():
    rng = random.Random(31)
    for _ in range(10):
        table = GeneratorTable(4)
        table.add_generator("u", 2)
        table.add_generator("v", 2)
        R = random_antisymmetric_curvature(table, 4, rng)
        ah = a_hat(R)
        assert ah.constant_term() == QC(1)
        for mono in ah.terms:
            assert table.mono_degree(mono) % 4 == 0


def _a_hat_by_matrix_log(R):
    """Oracle: exp(-1/2 tr log S) with S = sinh(M)/M for M = R/2 formed as a
    matrix, and tr log S = sum_k (-1)^(k+1) tr (S - I)^k / k, each power list
    built by multiplying until the power is zero."""
    table, d = R.table, R.d
    ident = FormMatrix.identity(table, d)

    def powers(mat):
        out = [ident]
        while True:
            power = out[-1] @ mat
            if power.is_zero():
                return out
            out.append(power)

    S = ident
    for k, power in enumerate(powers(R.mat.scale(Fraction(1, 2)))):
        if k and k % 2 == 0:
            S = S + power.scale(Fraction(1, math.factorial(k + 1)))
    log_tr = table.zero()
    for k, power in enumerate(powers(S - ident)):
        if k:
            log_tr = log_tr + power.trace().scale(Fraction((-1) ** (k + 1), k))
    return exp_nilpotent(log_tr.scale(Fraction(-1, 2)))


def _mehler_document_curvature():
    """The degree-4 ``mehler`` document: entry (0, 1) is u + u v."""
    table = GeneratorTable(4)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    return CurvatureMatrix.from_rows(table, [["0", "u + u v", "0", "0"],
                                             ["-u - u v", "0", "0", "0"],
                                             ["0", "0", "0", "v"],
                                             ["0", "0", "-v", "0"]])


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_a_hat_matches_the_matrix_log_oracle(d):
    # d = 8 is the least dimension where tr M^4 reaches the top degree, so
    # only there does the z^4 coefficient of log(sinh(z)/z) show
    rng = random.Random(d)
    table = GeneratorTable(d)
    for name in ("u", "v", "w"):
        table.add_generator(name, 2)
    cases = [_curvature(d), random_antisymmetric_curvature(table, d, rng)]
    if d == 4:
        cases.append(_mehler_document_curvature())
    for R in cases:
        assert a_hat(R) == _a_hat_by_matrix_log(R)
    if d == 8:
        assert not a_hat(cases[0]).homogeneous_parts()[8].is_zero()


# -- the kernel and its flat limit ------------------------------------------------------


def test_flat_kernel_is_standard_heat_kernel(curvature_d2):
    table, _ = curvature_d2
    R0 = CurvatureMatrix.zero(table, 2)
    tau = Fraction(1, 2)
    H = mehler_kernel(tau, R0)
    assert H.prefactor == table.one()
    assert H.pi_pow == -1
    assert H.norm == QC(Fraction(1, 4) / tau)        # (4 pi tau)^(-d/2)
    inv2tau = QC(1 / (2 * tau))
    for i in range(2):
        for j in range(2):
            want_xx = table.scalar(inv2tau) if i == j else table.zero()
            assert H.xx[i, j] == want_xx
            want_xy = table.scalar(-inv2tau) if i == j else table.zero()
            assert H.xy[i, j] == want_xy


def test_diagonal_value_is_normalized_characteristic_form(curvature_d4):
    # the value at the origin is (4 pi tau)^(-d/2) det^(1/2)(M/sinh M) with
    # M = tau R / 2; at tau = 1 the determinant factor is the A-hat form
    table, R = curvature_d4
    H1 = mehler_kernel(1, R)
    assert H1.pi_pow == -2 and H1.norm == QC(Fraction(1, 16))
    assert H1.prefactor == a_hat(R)
    # scaled time: compare against the series with R replaced by tau R
    tau = Fraction(1, 3)
    Ht = mehler_kernel(tau, R)
    scaled = CurvatureMatrix(table, 4, R.mat.scale(QC(tau)))
    assert Ht.prefactor == a_hat(scaled)


def test_mehler_rejects_nonpositive_time(curvature_d2):
    _, R = curvature_d2
    with pytest.raises(ValueError):
        mehler_kernel(0, R)
    with pytest.raises(ValueError):
        heat_element(Fraction(-1, 2), R)


@pytest.mark.parametrize("entry, negated", [("1", "-1"), ("1 + w", "-1 - w"),
                                            ("-2/3 w + 5", "2/3 w - 5")])
def test_curvature_rejects_a_constant_term_by_entry(entry, negated):
    # a constant entry is not nilpotent: the powers of R would never vanish
    table = GeneratorTable(2)
    table.add_generator("w", 2)
    rows = [["0", entry], [negated, "0"]]
    with pytest.raises(ValueError, match=r"curvature entry \(0, 1\) = .* constant term"):
        CurvatureMatrix.from_rows(table, rows)


# -- kappa ---------------------------------------------------------------------------------


def test_kappa_constant_derivation():
    c = solve_kappa_constant()
    assert c == Fraction(-1, 2)
    assert KAPPA_COEFF == c


def test_factorization_identity(curvature_d2, curvature_d4):
    # H(X,Y) = H(X-Y) exp(-kappa/2) shares norm, prefactor and the X-X block
    # with H(X,Y), so it holds exactly when X-Y + X-X == (kappa/2) R
    for R in (curvature_d2[1], curvature_d4[1], _mehler_document_curvature()):
        for tau in (Fraction(1, 3), 1):
            Ht = mehler_kernel(tau, R)
            assert Ht.xy + Ht.xx == R.mat.scale(KAPPA_COEFF / 2)
        assert solve_kappa_constant(R=R) == KAPPA_COEFF


@pytest.mark.parametrize("name", ["_cauchy", "_xx_block"])
def test_kappa_derivation_rejects_a_perturbed_cross_block(name, curvature_d4, monkeypatch):
    # an order-R^2 change of the X-Y block leaves unchanged the order-R^1
    # coefficient that c is read off, so only the check on every entry sees it
    import chernloc.mehler as mh
    _, R = curvature_d4
    orig = getattr(mh, name)
    if name == "_cauchy":
        def perturbed(a, b):
            c = orig(a, b)
            return c[:2] + [c[2] + 1] + c[3:]
    else:
        def perturbed(inv_tau, even):
            return orig(inv_tau, even) + even[1].scale(inv_tau)
    monkeypatch.setattr(mh, name, perturbed)
    with pytest.raises(ArithmeticError, match="X-Y block is not"):
        solve_kappa_constant(R=R)


def test_wrong_kappa_constant_breaks_the_semigroup(curvature_d2, curvature_d4):
    # the twist constant first matters at order R^2, so d = 4 is the smallest
    # case that can see a wrong value (at d = 2 everything quadratic in the
    # curvature is truncated away and any constant passes)
    _, R = curvature_d4
    H1 = heat_element(Fraction(1, 4), R)
    H2 = heat_element(Fraction(1, 2), R)
    target = heat_element(Fraction(3, 4), R)
    assert twisted_convolve(H1, H2, R, kappa_coeff=Fraction(-1, 4)) != target
    assert twisted_convolve(H1, H2, R) == target
    _, R2 = curvature_d2
    assert twisted_convolve(heat_element(Fraction(1, 4), R2),
                            heat_element(Fraction(1, 2), R2), R2) == \
        heat_element(Fraction(3, 4), R2)


# -- semigroup --------------------------------------------------------------------------------


TAUS = (Fraction(1, 4), Fraction(1, 2), Fraction(1))


def test_flat_semigroup_is_plain_convolution(curvature_d2):
    table, _ = curvature_d2
    R0 = CurvatureMatrix.zero(table, 2)
    lhs = twisted_convolve(heat_element(Fraction(1, 4), R0),
                           heat_element(Fraction(1, 2), R0), R0)
    assert lhs == heat_element(Fraction(3, 4), R0)


@pytest.mark.parametrize("ta", TAUS)
@pytest.mark.parametrize("tb", TAUS)
def test_twisted_semigroup_exact_d2(curvature_d2, ta, tb):
    _, R = curvature_d2
    lhs = twisted_convolve(heat_element(ta, R), heat_element(tb, R), R)
    assert lhs == heat_element(ta + tb, R)


@pytest.mark.parametrize("ta", TAUS)
@pytest.mark.parametrize("tb", TAUS)
def test_twisted_semigroup_exact_d4(curvature_d4, ta, tb):
    _, R = curvature_d4
    lhs = twisted_convolve(heat_element(ta, R), heat_element(tb, R), R)
    assert lhs == heat_element(ta + tb, R)


def test_convolution_is_linear_in_zero(curvature_d2):
    _, R = curvature_d2
    H = heat_element(1, R)
    zero = H.scale_prefactor(H.table.zero())
    out = twisted_convolve(H, zero, R)
    assert out.prefactor.is_zero()
    out = twisted_convolve(zero, H, R)
    assert out.prefactor.is_zero()


# -- heat equation -------------------------------------------------------------------------------


def test_heat_equation_symbolic_d4(curvature_d4):
    _, R = curvature_d4
    assert heat_equation_residual(R).is_zero()


def test_heat_equation_symbolic_d2_and_flat(curvature_d2):
    table, R = curvature_d2
    assert heat_equation_residual(R).is_zero()
    assert heat_equation_residual(CurvatureMatrix.zero(table, 2)).is_zero()


def test_formal_time_and_kappa_reject_inexact_curvature():
    table = GeneratorTable(2)
    table.add_generator("u", 2)
    R = CurvatureMatrix.from_rows(table, [["0", "0.5 * u"], ["-0.5 * u", "0"]])
    named = r"curvature entry \(0, 1\) = .* u is inexact; "
    for call in (lambda: heat_equation_residual(R),
                 lambda: mehler_kernel(TauPoly.var(1), R),
                 lambda: heat_element(TauPoly.var(1), R)):
        with pytest.raises(ValueError, match=named + "a formal time needs exact"):
            call()
    with pytest.raises(ValueError, match=named + "the kappa derivation needs exact"):
        solve_kappa_constant(R=R)
    # a numeric time takes inexact curvature as before
    assert not heat_element(Fraction(1, 2), R).prefactor.is_zero()


def test_heat_equation_detects_wrong_kernel(curvature_d4, monkeypatch):
    # flipping the sign of the z^2 coefficient of any one series must leave a
    # nonzero residual (at d = 4; lower-dimensional truncation would hide the
    # perturbation)
    import chernloc.mehler as mh
    _, R = curvature_d4
    assert mh.heat_equation_residual(R).is_zero()
    for name in ("_sinhc_coeffs", "_zcoth_coeffs", "_zcsch_coeffs"):
        orig = getattr(mh, name)

        def flipped(n, orig=orig):
            c = orig(n)
            return c[:2] + [-c[2]] + c[3:]

        with monkeypatch.context() as patch:
            patch.setattr(mh, name, flipped)
            assert not mh.heat_equation_residual(R).is_zero(), name
    assert mh.heat_equation_residual(R).is_zero()


def _curvature(d):
    """Entry (i, j), i < j, is +-(generator (i + j) mod k): nonzero at every d."""
    table = GeneratorTable(d)
    names = ("u", "v")[:1 if d == 2 else 2]
    for name in names:
        table.add_generator(name, 2)
    gens = [table.gen(name) for name in names]
    rows = [[table.zero()] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            rows[i][j] = gens[(i + j) % len(gens)].scale((-1) ** (i * j))
            rows[j][i] = -rows[i][j]
    return CurvatureMatrix(table, d, FormMatrix(table, rows))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_heat_element_is_the_two_point_kernel_at_the_origin(d):
    R = _curvature(d)
    for tau in (Fraction(1, 4), 1, Fraction(3, 2), TauPoly.var(1)):
        full = mehler_kernel(tau, R)
        want = GaussianKernel(R.table, d, full.norm, full.pi_pow,
                              full.prefactor, full.xx)
        assert heat_element(tau, R) == want


def test_heat_element_skips_the_cross_term_series(curvature_d4, monkeypatch):
    import chernloc.mehler as mh
    _, R = curvature_d4
    want = heat_element(1, R)

    def refuse(n):
        raise AssertionError("the X-Y series was evaluated")

    monkeypatch.setattr(mh, "_zcsch_coeffs", refuse)
    assert mh.heat_element(1, R) == want
    with pytest.raises(AssertionError):
        mh.mehler_kernel(1, R)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_heat_equation_residual_is_a_symmetric_quadratic_form(d, monkeypatch):
    import chernloc.mehler as mh
    R = _curvature(d)
    residual = mh.heat_equation_residual(R)
    assert isinstance(residual, FormMatrix)
    assert residual.shape == (2 * d + 1, 2 * d + 1)
    assert residual.is_zero()
    # the kernel for 2R against the operator for R: a nonzero, symmetric residual
    kernel = mh.mehler_kernel
    doubled = CurvatureMatrix(R.table, d, R.mat.scale(2))
    monkeypatch.setattr(mh, "mehler_kernel",
                        lambda tau, _R: kernel(tau, doubled))
    wrong = mh.heat_equation_residual(R)
    assert wrong.shape == (2 * d + 1, 2 * d + 1)
    assert not wrong.is_zero()
    assert wrong == wrong.transpose()


def _checked_symmetric_products(monkeypatch):
    """Make every ``FormMatrix.symmetric_product`` also form the full
    product and require the two to be equal; the returned list collects the
    shape of each product checked."""
    seen = []
    product = FormMatrix.symmetric_product

    def checked(a, b):
        out = product(a, b)
        assert out == a @ b
        seen.append(out.shape)
        return out

    monkeypatch.setattr(FormMatrix, "symmetric_product", checked)
    return seen


@pytest.mark.parametrize("d", [2, 4, 6])
def test_symmetric_products_equal_the_full_products(d, monkeypatch):
    # the residual's L^T L is symmetric by construction once only its
    # triangle is formed, so it is checked here against the full product,
    # on the kernel for R and on the kernel for 2R of the test above
    import chernloc.mehler as mh
    R = _curvature(d)
    doubled = CurvatureMatrix(R.table, d, R.mat.scale(2))
    seen = _checked_symmetric_products(monkeypatch)
    assert mh.heat_equation_residual(R).is_zero()
    kernel = mh.mehler_kernel
    monkeypatch.setattr(mh, "mehler_kernel", lambda tau, _R: kernel(tau, doubled))
    assert not mh.heat_equation_residual(R).is_zero()
    assert seen.count((2 * d, 2 * d)) == 2
    monkeypatch.setattr(mh, "mehler_kernel", kernel)
    # M = tau R/2 (and R/2 for A-hat) with exact and with float coefficients
    seen.clear()
    for RR in (R, CurvatureMatrix(R.table, d, R.mat.scale(0.37))):
        for tau in (Fraction(1, 4), 1):
            mh.heat_prefactor(tau, RR)
            mh.heat_element(tau, RR)
            mh.mehler_kernel(tau, RR)
        mh.a_hat(RR)
    assert seen == [(d, d)] * 14


# -- boundary supertrace --------------------------------------------------------------------------


def test_str_zero_constant_identity():
    # (2/i)^(d/2) (4 pi)^(-d/2) = (2 pi i)^(-d/2) exactly
    for d in (2, 4):
        lhs = PiScalar(two_over_i_pow(d) * QC(Fraction(1, 4 ** (d // 2))), -(d // 2))
        assert lhs == two_pi_i_inv_pow(d)


def test_str_zero_of_time_one_element(curvature_d4):
    table, R = curvature_d4
    value = str_zero(heat_element(1, R))
    want = a_hat(R).top_component().scale(two_pi_i_inv_pow(4))
    assert value == want


def test_str_zero_flat_d2_vanishes(curvature_d2):
    table, _ = curvature_d2
    R0 = CurvatureMatrix.zero(table, 2)
    assert str_zero(heat_element(1, R0)).is_zero()


def test_str_zero_on_forms(curvature_d2):
    # a form enters the supertrace as a kernel's prefactor; the flat
    # time-one prefactor is 1 with norm (4 pi)^(-1)
    table, R = curvature_d2
    w = table.gen("w")
    flat = heat_prefactor(1, CurvatureMatrix.zero(table, 2))
    assert str_zero(flat.scale_prefactor(w)) == w.scale(two_pi_i_inv_pow(2))
    for low in (table.one(), table.sigma() * w, table.scalar(3)):   # degree < d
        assert str_zero(flat.scale_prefactor(low)).is_zero()
    a, b = table.scalar(2) * w + table.one(), table.scalar(3) * w - table.sigma() * w
    for K in (flat, heat_prefactor(1, R), heat_prefactor(Fraction(1, 2), R)):
        assert (str_zero(K.scale_prefactor(a + b))
                == str_zero(K.scale_prefactor(a)) + str_zero(K.scale_prefactor(b)))


# -- numeric Gaussian data from the elimination ----------------------------------------------------


def _numeric_elimination(mat, b):
    """(det M, M^-1 b) through the form elimination, on numeric entries."""
    import chernloc.mehler as mh
    table = GeneratorTable(2)
    det, solved = mh._eliminate(FormMatrix.from_scalars(table, mat),
                                FormMatrix.from_scalars(table, [[x] for x in b]))
    return det.constant_term(), [solved[i, 0].constant_term() for i in range(len(b))]


def test_elimination_matches_numpy_on_float_data():
    cases = [
        ([[2.0, 0.3], [0.3, 1.5]], [0.7, -0.4]),
        ([[1.0, -0.2], [-0.2, 3.0]], [0.0, 1.1]),
        ([[2.5, 0.4, 0.1], [0.4, 1.2, -0.3], [0.1, -0.3, 0.9]], [0.5, -0.2, 0.8]),
        # determinants with 49.0 * (1 / 49.0) != 1.0 in floating point
        ([[49.0]], [0.3]),
        ([[7.0, 0.0], [0.0, 7.0]], [0.1, -0.2]),
    ]
    for mat, b in cases:
        det, solved = _numeric_elimination(mat, b)
        want_det = np.linalg.det(mat)
        want = np.linalg.solve(mat, b)
        assert abs(complex(det) - want_det) <= 1e-12 * abs(want_det)
        assert np.abs(np.array(solved, dtype=complex) - want).max() \
            <= 1e-12 * np.abs(want).max()


def test_gaussian_integral_exact_rational_case():
    det, solved = _numeric_elimination([[Fraction(2), 0], [0, Fraction(2)]], [1, 3])
    assert det == QC(4) and solved == [QC(Fraction(1, 2)), QC(Fraction(3, 2))]
    # exact pivots far outside the float range are judged exactly
    for e in (400, -400):
        det, solved = _numeric_elimination([[Fraction(10) ** -e]], [1])
        assert det == QC(Fraction(10) ** -e) and solved == [QC(Fraction(10) ** e)]


def test_gaussian_integral_rejects_indefinite_forms():
    # Sylvester's criterion on the pivots, float and exact
    for mat in ([[1.0, 0.0], [0.0, -2.0]], [[1.0, 3.0], [3.0, 1.0]],
                # a zero leading minor, first and last
                [[0.0, 1.0], [1.0, 2.0]], [[Fraction(1), Fraction(1)],
                                           [Fraction(1), Fraction(1)]],
                # exact pivots: tiny negative, zero, and an indefinite second minor
                [[Fraction(-1, 10**400)]], [[0]], [[1, 2], [2, 1]]):
        with pytest.raises(ValueError):
            _numeric_elimination(mat, [0] * len(mat))


def test_kernel_blocks_are_d_by_d_and_paired(curvature_d2):
    table, R = curvature_d2
    I2, I4 = FormMatrix.identity(table, 2), FormMatrix.identity(table, 4)
    one = table.one()
    with pytest.raises(ValueError):
        GaussianKernel(table, 2, QC(1), 0, one, I4)
    with pytest.raises(ValueError):
        GaussianKernel(table, 2, QC(1), 0, one, I2, I4)
    assert GaussianKernel(table, 2, QC(1), 0, one, I2).is_one_variable
    assert not GaussianKernel(table, 2, QC(1), 0, one, I2, -I2).is_one_variable


def test_twisted_convolve_rejects_a_non_positive_y_block(curvature_d2):
    # Myy = Af + Ag = -3 I + 2 I is negative definite
    table, R = curvature_d2
    f = GaussianKernel(table, 2, QC(1), 0, table.one(),
                       FormMatrix.identity(table, 2).scale(-3))
    g = heat_element(Fraction(1, 4), R)
    with pytest.raises(ValueError):
        twisted_convolve(f, g, R)


# -- the elimination against the Leibniz oracle -------------------------------------------


def _random_gaussian_matrix(table, n, rng, coeff=QC(1)):
    """Symmetric positive-definite numeric part B B^T + I plus an arbitrary
    even nilpotent part whose coefficients carry the factor ``coeff``."""
    u, v = table.gen("u"), table.gen("v")
    nils = (u, v, u * v, u * u)
    B = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            a = sum((B[i][k] * B[j][k] for k in range(n)), Fraction(int(i == j)))
            e = table.scalar(a)
            for m in nils:
                c = Fraction(rng.randint(-2, 2), rng.choice([1, 3]))
                if c:
                    e = e + m.scale(coeff * QC(c))
            row.append(e)
        rows.append(row)
    return FormMatrix(table, rows)


def test_elimination_matches_leibniz_determinant_and_inverts():
    import chernloc.mehler as mh
    rng = random.Random(11)
    table = GeneratorTable(4)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    cases = [_random_gaussian_matrix(table, n, rng)
             for n in (1, 2, 3, 4) for _ in range(3)]
    # Laurent coefficients in a formal time, as in the formal Mehler kernel
    cases.append(_random_gaussian_matrix(table, 3, rng, coeff=TauPoly.var(-1)))
    for M in cases:
        n = M.shape[0]
        det, inv = mh._eliminate(M, FormMatrix.identity(table, n))
        assert det == det_leibniz(M)
        assert M @ inv == FormMatrix.identity(table, n)
        assert inv @ M == FormMatrix.identity(table, n)


def test_elimination_solves_only_for_its_right_hand_side():
    import chernloc.mehler as mh
    rng = random.Random(12)
    table = GeneratorTable(4)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    for n in (1, 2, 3, 4):
        for coeff in (QC(1), TauPoly.var(-1)):
            M = _random_gaussian_matrix(table, n, rng, coeff=coeff)
            want = det_leibniz(M)
            det, solved = mh._eliminate(M, FormMatrix.zero(table, n, 0))
            assert det == want and solved.shape == (n, 0)
            B = FormMatrix(table, [row[:2] for row in
                                   _random_gaussian_matrix(table, n + 2, rng).rows[:n]])
            det, X = mh._eliminate(M, B)
            assert det == want
            assert M @ X == B
    with pytest.raises(ValueError):
        mh._eliminate(M, FormMatrix.zero(table, n + 1, 0))


def test_determinant_alone_is_the_determinant_of_the_full_elimination():
    # with no right-hand side the rows above each pivot are left alone; the
    # pivots are the same forms, so the determinant is the same, float or exact
    import chernloc.mehler as mh
    rng = random.Random(14)
    table = GeneratorTable(4)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    for n in (2, 4, 6):
        for _ in range(2):
            M = _random_gaussian_matrix(table, n, rng)
            M = (M + M.transpose()).scale(Fraction(1, 2))
            for mat in (M, M.scale(0.37)):
                det, solved = mh._eliminate(mat, FormMatrix.zero(table, n, 0))
                full, _ = mh._eliminate(mat, FormMatrix.identity(table, n))
                assert det == full and repr(det) == repr(full)
                assert solved.shape == (n, 0)
            assert det_leibniz(M) == mh._eliminate(M, FormMatrix.zero(table, n, 0))[0]


def test_det_invsqrt_is_the_inverse_square_root():
    # s s (1 + u) == 1 for the series s of (1 + u)^(-1/2), and the scalar
    # part squares to 1 / det0
    import chernloc.mehler as mh
    rng = random.Random(13)
    for d in (2, 4, 6):
        table = GeneratorTable(d)
        table.add_generator("u", 2)
        table.add_generator("v", 2)
        u, v = table.gen("u"), table.gen("v")
        for _ in range(4):
            nil = table.zero()
            for m in (u, v, u * v, u * u, u * v * v):
                c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                if c:
                    nil = nil + m.scale(c)
            det0 = QC(Fraction(rng.choice([1, 4, 2]), rng.choice([1, 9, 3])))
            one_plus_u = table.one() + nil
            scalar, series = mh._det_invsqrt(one_plus_u.scale(det0))
            assert series * series * one_plus_u == table.one()
            if isinstance(scalar, QC):
                assert scalar * scalar * det0 == QC(1)
            else:
                assert abs(scalar * scalar * complex(det0) - 1) < 1e-12


# -- exactness ------------------------------------------------------------------------------------


def _kernel_coefficients(K):
    yield K.norm
    yield from K.prefactor.terms.values()
    for block in (K.xx, K.xy):
        for row in (block.rows if block is not None else ()):
            for e in row:
                yield from e.terms.values()


def test_gaussian_outputs_stay_exact():
    rng = random.Random(5)
    for d in (2, 4, 6):
        table = GeneratorTable(d)
        table.add_generator("u", 2)
        table.add_generator("v", 2)
        R = random_antisymmetric_curvature(table, d, rng, density=1.0)
        H1 = heat_element(Fraction(1, 4), R)
        H2 = heat_element(Fraction(1, 2), R)
        kernels = (mehler_kernel(Fraction(1, 3), R),
                   mehler_kernel(TauPoly.var(1), R),
                   H1, H2, twisted_convolve(H1, H2, R))
        for K in kernels:
            for c in _kernel_coefficients(K):
                assert is_exact(c), (d, K, c)


def test_kernel_max_residual(curvature_d4):
    _, R = curvature_d4
    quarter = heat_element(Fraction(1, 4), R)
    assert kernel_max_residual(quarter, heat_element(Fraction(1, 4), R)) == 0.0
    assert kernel_max_residual(quarter, heat_element(Fraction(1, 2), R)) > 0.0


def test_curvature_matrix_rejects_a_dimension_other_than_the_top_degree():
    big = GeneratorTable(6)
    big.add_generator("u", 2)
    with pytest.raises(ValueError, match="curvature matrix is 4 x 4 but the "
                                         "table's top degree is 6"):
        CurvatureMatrix.from_rows(big, [["0", "u", "0", "0"], ["-u", "0", "0", "0"],
                                        ["0", "0", "0", "u"], ["0", "0", "-u", "0"]])
