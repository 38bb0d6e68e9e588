import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chernloc.formmatrix import (FormMatrix, det_leibniz, mat_exp_nilpotent,
                                 mat_powers)
from chernloc.multiform import GeneratorTable


def table4():
    t = GeneratorTable(4)
    t.add_generator("x", 1)
    t.add_generator("u", 2)
    t.add_generator("v", 2)
    t.set_differential("x", "u")
    return t


def test_shape_and_table_validation():
    t = table4()
    with pytest.raises(ValueError):
        FormMatrix(t, [[t.one()], [t.one(), t.one()]])
    other = table4()
    with pytest.raises(ValueError):
        FormMatrix(t, [[other.one()]])
    with pytest.raises(ValueError):
        FormMatrix.identity(t, 2) @ FormMatrix.identity(t, 3)


def test_algebra_basics():
    t = table4()
    a = FormMatrix.parse(t, [["1", "x"], ["u", "0"]])
    eye = FormMatrix.identity(t, 2)
    assert (a @ eye) == a and (eye @ a) == a
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    assert a.trace() == t.one()
    assert (a.scale(2) - a - a).is_zero()


def test_entrywise_differential_and_sigma_split():
    t = table4()
    s = t.sigma()
    a = FormMatrix.parse(t, [["x"]])
    assert a.d() == FormMatrix.parse(t, [["u"]])
    m = FormMatrix(t, [[t.gen("x") + s * t.gen("u")]])
    prime, second = m.split_sigma()
    assert prime == FormMatrix.parse(t, [["x"]])
    assert second == FormMatrix.parse(t, [["u"]])


def test_determinant_against_cofactor_expansion():
    t = table4()
    rng = random.Random(3)
    u, v = t.gen("u"), t.gen("v")
    for _ in range(10):
        entries = [[t.scalar(rng.randint(-2, 2))
                    + u.scale(Fraction(rng.randint(-1, 1)))
                    + v.scale(Fraction(rng.randint(-1, 1)))
                    for _ in range(3)] for _ in range(3)]
        m = FormMatrix(t, entries)
        # first-row cofactor expansion as the independent path
        det = t.zero()
        for j in range(3):
            rows = [[entries[i][k] for k in range(3) if k != j]
                    for i in (1, 2)]
            minor = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            term = entries[0][j] * minor
            det = det + (term if j % 2 == 0 else -term)
        assert det_leibniz(m) == det


def test_nilpotent_exponential_inverts():
    t = table4()
    rng = random.Random(5)
    u, v = t.gen("u"), t.gen("v")
    nu = FormMatrix(t, [[u.scale(Fraction(1, 2)), v],
                        [u - v, v.scale(Fraction(-1, 3))]])
    g = mat_exp_nilpotent(nu)
    g_inv = mat_exp_nilpotent(-nu)
    assert (g @ g_inv) == FormMatrix.identity(t, 2)


def test_power_series_truncates_by_nilpotency():
    t = table4()
    u = t.gen("u")
    n = FormMatrix(t, [[t.zero(), u], [u, t.zero()]])
    # the power list stops at the last nonzero power, n^2 = u^2 I
    assert mat_powers(n) == [FormMatrix.identity(t, 2), n, n @ n]
    assert (n @ n @ n).is_zero()
    assert mat_powers(FormMatrix.zero(t, 2)) == [FormMatrix.identity(t, 2)]


@pytest.mark.parametrize("entry, i, j", [("1", 0, 0), ("2 + u", 1, 0)])
def test_powers_reject_a_constant_term_by_entry(entry, i, j):
    # a constant term makes the powers never vanish, so the list would not end
    t = table4()
    rows = [["u", "0"], ["0", "sigma u"]]
    rows[i][j] = entry
    mat = FormMatrix.parse(t, rows)
    with pytest.raises(ValueError, match=rf"entry \({i}, {j}\) = .*constant term"):
        mat_powers(mat)
    with pytest.raises(ValueError, match="constant term"):
        mat_exp_nilpotent(mat)
    with pytest.raises(ValueError, match=r"entry \(0, 0\)"):
        mat_exp_nilpotent(FormMatrix.identity(t, 2))


def _random_even_form(t, rng):
    """A sum of even monomials (degrees 0, 2 and 4) with rational
    coefficients, each present with probability one half."""
    u, v = t.gen("u"), t.gen("v")
    out = t.zero()
    for mono in (t.one(), u, v, u * v, u * u):
        if rng.random() < 0.5:
            out = out + mono.scale(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])))
    return out


@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(1, 4))
def test_symmetric_product_is_the_full_product(rng, n, m):
    # M M for M antisymmetric and A^T A, over even forms, formed from the
    # triangle i <= j, against the full product
    t = table4()
    rows = [[t.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = _random_even_form(t, rng)
            rows[j][i] = -rows[i][j]
    M = FormMatrix(t, rows)
    assert M.is_antisymmetric()
    assert M.symmetric_product(M) == M @ M
    A = FormMatrix(t, [[_random_even_form(t, rng) for _ in range(n)] for _ in range(m)])
    assert A.transpose().symmetric_product(A) == A.transpose() @ A


def test_symmetric_product_needs_a_square_result():
    t = table4()
    A = FormMatrix.parse(t, [["u", "v", "0"], ["0", "u", "v"]])
    with pytest.raises(ValueError, match="must be square"):
        A.symmetric_product(FormMatrix.parse(t, [["u"], ["v"], ["0"]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        A.symmetric_product(A)
