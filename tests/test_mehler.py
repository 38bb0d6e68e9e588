import math
import random
from fractions import Fraction

import pytest

from chernloc.formmatrix import FormMatrix, det_leibniz
from chernloc.mehler import (KAPPA_COEFF, CurvatureMatrix, GaussianKernel,
                             a_hat, gaussian_integral, heat_element,
                             heat_equation_residual, kappa_form,
                             mehler_kernel, solve_kappa_constant, str_zero,
                             twist_factor, twisted_convolve)
from chernloc.multiform import GeneratorTable
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
            assert H.xx_block()[i, j] == want_xx
            assert H.yy_block()[i, j] == want_xx
            want_xy = table.scalar(-inv2tau) if i == j else table.zero()
            assert H.xy_block()[i, j] == want_xy


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


# -- kappa ---------------------------------------------------------------------------------


def test_kappa_constant_derivation():
    c = solve_kappa_constant()
    assert c == Fraction(-1, 2)
    assert KAPPA_COEFF == c


def test_kappa_form_properties(curvature_d2):
    table, R = curvature_d2
    R0 = CurvatureMatrix.zero(table, 2)
    assert kappa_form([1, 2], [3, 4], R0).is_zero()
    # antisymmetry of R kills the diagonal pairing
    rng = random.Random(2)
    for _ in range(20):
        X = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        assert kappa_form(X, X, R).is_zero()
    k = kappa_form([1, 0], [0, 1], R)
    assert k == table.gen("w").scale(KAPPA_COEFF)


def test_factorization_identity(curvature_d2, curvature_d4):
    # H(X,Y) = H(X-Y) exp(-kappa/2) exactly, which is what pins the constant
    for _, R in (curvature_d2, curvature_d4):
        tau = Fraction(1, 3)
        full = mehler_kernel(tau, R)
        factored = heat_element(tau, R).shift_to_difference().mul(twist_factor(R))
        assert factored == full


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
    for tau, formal in ((Fraction(1, 4), False), (1, False), (Fraction(3, 2), False),
                        (None, True)):
        full = mehler_kernel(tau, R, formal=formal)
        want = GaussianKernel.assemble(R.table, d, full.norm, full.pi_pow,
                                       full.prefactor, full.xx_block(), None, None)
        assert heat_element(tau, R, formal=formal) == want


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
                        lambda tau, _R, formal=False: kernel(tau, doubled, formal))
    wrong = mh.heat_equation_residual(R)
    assert wrong.shape == (2 * d + 1, 2 * d + 1)
    assert not wrong.is_zero()
    assert wrong == wrong.transpose()


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
    table, _ = curvature_d2
    w = table.gen("w")
    out = str_zero(w)
    assert out == w.scale(two_over_i_pow(2))
    assert str_zero(table.one()).is_zero()            # degree < d
    a, b = table.scalar(2) * w, table.scalar(3) * w
    assert str_zero(a + b) == str_zero(a) + str_zero(b)


# -- the Gaussian integrator oracle ------------------------------------------------------------------


def closed_form_iterated(mat, b):
    """Iterated one-dimensional completions of the square (axis by axis)."""
    import cmath
    n = len(b)
    M = [[float(x) for x in row] for row in mat]
    lin = [complex(x) for x in b]
    value = 1.0 + 0j
    for _ in range(n):
        a = M[0][0]
        value *= math.sqrt(2 * math.pi / a)
        value *= cmath.exp(lin[0] ** 2 / (2 * a))
        size = len(M)
        newM = [[M[i][j] - M[i][0] * M[0][j] / a
                 for j in range(1, size)] for i in range(1, size)]
        newlin = [lin[i] + lin[0] * (-M[i][0] / a) for i in range(1, size)]
        M, lin = newM, newlin
    return value


def test_gaussian_integral_against_iterated_closed_form():
    cases = [
        ([[2.0, 0.3], [0.3, 1.5]], [0.7, -0.4]),
        ([[1.0, -0.2], [-0.2, 3.0]], [0.0, 1.1]),
        ([[2.5, 0.4, 0.1], [0.4, 1.2, -0.3], [0.1, -0.3, 0.9]], [0.5, -0.2, 0.8]),
        # determinants with 49.0 * (1 / 49.0) != 1.0 in floating point
        ([[49.0]], [0.3]),
        ([[7.0, 0.0], [0.0, 7.0]], [0.1, -0.2]),
    ]
    for mat, b in cases:
        got = gaussian_integral(mat, b)
        want = closed_form_iterated(mat, b)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_gaussian_integral_exact_rational_case():
    got = gaussian_integral([[Fraction(2), 0], [0, Fraction(2)]], [0, 0])
    assert abs(got - math.pi) < 1e-14
    # exact pivots far outside the float range are judged exactly
    for e in (400, -400):
        got = gaussian_integral([[Fraction(10) ** -e]], [0])
        want = math.sqrt(2 * math.pi) * 10.0 ** (e // 2)
        assert abs(got - want) <= 1e-14 * want


def test_gaussian_integral_rejects_indefinite_forms():
    with pytest.raises(ValueError):
        gaussian_integral([[1.0, 0.0], [0.0, -2.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        gaussian_integral([[1.0, 3.0], [3.0, 1.0]], [0.0, 0.0])
    # a zero leading minor, first and last
    with pytest.raises(ValueError):
        gaussian_integral([[0.0, 1.0], [1.0, 2.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        gaussian_integral([[Fraction(1), Fraction(1)],
                           [Fraction(1), Fraction(1)]], [0, 0])
    # exact pivots: tiny negative, zero, and an indefinite second minor
    for mat in ([[Fraction(-1, 10**400)]], [[0]], [[1, 2], [2, 1]]):
        with pytest.raises(ValueError):
            gaussian_integral(mat, [0] * len(mat))


def test_twisted_convolve_rejects_a_non_positive_y_block(curvature_d2):
    # Myy = Af + Ag = -3 I + 2 I is negative definite
    table, R = curvature_d2
    f = GaussianKernel.assemble(table, 2, QC(1), 0, table.one(),
                                FormMatrix.identity(table, 2, -3), None, None)
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
        det, inv = mh._eliminate(M)
        assert det == det_leibniz(M)
        assert M @ inv == FormMatrix.identity(table, n)
        assert inv @ M == FormMatrix.identity(table, n)


# -- exactness ------------------------------------------------------------------------------------


def _kernel_coefficients(K):
    yield K.norm
    yield from K.prefactor.terms.values()
    for row in K.quad.rows:
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
                   mehler_kernel(None, R, formal=True),
                   H1, H2, twisted_convolve(H1, H2, R))
        for K in kernels:
            for c in _kernel_coefficients(K):
                assert is_exact(c), (d, K, c)
