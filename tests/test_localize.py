import random
from fractions import Fraction

import pytest

from chernloc.localize import (LocalizationCase, limit_theorem_check,
                               localized_term, symbol_of_F)
from chernloc.formmatrix import FormMatrix
from chernloc.mehler import CurvatureMatrix, a_hat
from chernloc.multiform import GeneratorTable
from chernloc.sampling import random_form
from chernloc.scalars import QC, two_pi_i_inv_pow

from conftest import random_antisymmetric_curvature


# -- block symbols ----------------------------------------------------------------------


def test_symbol_one_slot_wedges_by_second_part(curvature_d2):
    table, _ = curvature_d2
    w = table.gen("w")
    theta = table.sigma() * w
    assert symbol_of_F(theta) == w
    assert symbol_of_F(w).is_zero()          # theta'' = 0


def test_symbol_two_slots_vanish(curvature_d2):
    table, _ = curvature_d2
    w = table.gen("w")
    assert symbol_of_F(table.sigma() * w, w).is_zero()


def test_symbol_rejects_three_slots(curvature_d2):
    table, _ = curvature_d2
    w = table.gen("w")
    with pytest.raises(ValueError):
        symbol_of_F(w, w, w)


# -- localized terms ------------------------------------------------------------------------


def test_vanishing_for_incomplete_patterns(curvature_d4):
    table, R = curvature_d4
    s = table.sigma()
    u, v = table.gen("u"), table.gen("v")
    case = LocalizationCase(4, R, (s * u, s * v), (2,))
    assert localized_term(case).is_zero()
    case = LocalizationCase(4, R, (s * u, s * v, s * u), (2, 3))
    assert localized_term(case).is_zero()
    case = LocalizationCase(4, R, (s * u, s * v, s * u), (1, 3))
    assert localized_term(case).is_zero()


def test_invalid_gap_patterns_rejected(curvature_d4):
    table, R = curvature_d4
    s = table.sigma()
    u = table.gen("u")
    with pytest.raises(ValueError):
        LocalizationCase(4, R, (s * u, s * u, s * u), (3,))
    with pytest.raises(ValueError):
        LocalizationCase(4, R, (s * u, s * u), (1,))
    with pytest.raises(ValueError):
        LocalizationCase(4, R, (s * u,), ())


def test_empty_word_gives_characteristic_top_form(curvature_d4):
    table, R = curvature_d4
    case = LocalizationCase(4, R, (), ())
    value = localized_term(case)
    want = a_hat(R).top_component().scale(two_pi_i_inv_pow(4))
    assert value == want


def test_worked_d2_example(curvature_d2):
    # theta_1 = sigma (alpha w) at d = 2: the limit is (2 pi i)^(-1) alpha [w]
    table, R = curvature_d2
    alpha = QC(Fraction(5, 3))
    w = table.gen("w")
    case = LocalizationCase(2, R, (table.sigma() * w.scale(alpha),), (1,))
    value = localized_term(case)
    want = w.scale(alpha).scale(two_pi_i_inv_pow(2))
    assert value == want


# -- the limit theorem ---------------------------------------------------------------------------


def test_limit_trivial_zero_cases(curvature_d4):
    table, R = curvature_d4
    u, v = table.gen("u"), table.gen("v")
    rep = limit_theorem_check(4, R, (u, v))     # no sigma parts anywhere
    assert rep.exact_equal and rep.lhs.is_zero() and rep.rhs.is_zero()
    R0 = CurvatureMatrix.zero(table, 4)
    rep = limit_theorem_check(4, R0, ())
    assert rep.exact_equal and rep.lhs.is_zero()


def test_limit_theorem_d4_exact(curvature_d4):
    table, R = curvature_d4
    s = table.sigma()
    u, v = table.gen("u"), table.gen("v")
    rep = limit_theorem_check(4, R, (s * (u * v),))
    assert rep.ok and rep.exact_equal
    assert rep.lhs == rep.rhs
    assert not rep.lhs.is_zero()


def test_limit_theorem_float_fallback(curvature_d2):
    # inexact input coefficients: both sides agree to 1e-12 instead of exactly
    table, R = curvature_d2
    w = table.gen("w")
    word = (table.sigma() * w.scale(0.37 + 0.11j),)
    rep = limit_theorem_check(2, R, word)
    assert rep.residual < 1e-12
    assert rep.ok


def test_limit_theorem_random_suite():
    rng = random.Random(77)
    checked = 0
    nontrivial = 0
    for d in (2, 4):
        for n_word in (0, 1, 2, 3):
            for _ in range(2):
                table = GeneratorTable(d)
                table.add_generator("u", 2)
                if d == 4:
                    table.add_generator("v", 2)
                R = random_antisymmetric_curvature(table, d, rng)
                word = []
                for _ in range(n_word):
                    f = random_form(table, rng, n_terms=2)
                    word.append(f if not f.is_zero() else table.one())
                rep = limit_theorem_check(d, R, tuple(word))
                assert rep.vanishing_patterns_zero
                assert rep.exact_equal, (d, n_word)
                checked += 1
                if not rep.rhs.is_zero():
                    nontrivial += 1
    assert checked >= 16
    assert nontrivial >= 3


def test_limit_theorem_float_words_at_d6_take_the_residual_branch():
    # float coefficients with six decimals round differently on the two
    # sides at d = 6, so the report falls back to the coefficient gap
    rng = random.Random(6)
    table = GeneratorTable(6)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    R = random_antisymmetric_curvature(table, 6, rng, density=1.0)
    s, u = table.sigma(), table.gen("u")
    inexact = 0
    for _ in range(12):
        c1, c2 = (round(rng.uniform(-1, 1), 6) for _ in range(2))
        rep = limit_theorem_check(6, R, ((s * u).scale(c1), s.scale(c2)))
        assert rep.ok
        assert rep.residual <= 1e-18
        if rep.lhs != rep.rhs:
            inexact += 1
            assert not rep.exact_equal
            assert rep.residual > 0.0
    assert inexact >= 1


def test_limit_theorem_float_curvature_at_d6_takes_the_residual_branch():
    # Â traces the log series of sinh(z)/z over the powers of (R/2)^2, the
    # left side takes det^(-1/2)(sinh(R/2)/(R/2)) by elimination; on float
    # curvature the two round apart in the last place
    table = GeneratorTable(6)
    for name in ("u", "v", "w"):
        table.add_generator(name, 2)
    gens = [table.gen(name) for name in ("u", "v", "w")]
    rows = [[table.zero()] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            rows[i][j] = gens[(i + j) % 3].scale(0.3)
            rows[j][i] = -rows[i][j]
    R = CurvatureMatrix(table, 6, FormMatrix(table, rows))
    A = a_hat(R)
    for gen in gens:
        (square,) = (gen * gen).terms
        assert abs(complex(A.coefficient(square)) - 0.01875) < 1e-17
    rep = limit_theorem_check(6, R, (table.sigma() * gens[0],))
    assert rep.ok
    assert rep.lhs != rep.rhs and not rep.exact_equal
    assert 0.0 < rep.residual <= 1e-19


def test_limit_theorem_skips_the_quadratic_form_series(curvature_d4, monkeypatch):
    import chernloc.mehler as mh
    table, R = curvature_d4
    s, u, v = table.sigma(), table.gen("u"), table.gen("v")
    want = limit_theorem_check(4, R, (s * u, s * v)).as_dict()
    assert want["lhs"] != "0"

    def refuse(n):
        raise AssertionError("a quadratic-form series was evaluated")

    monkeypatch.setattr(mh, "_zcoth_coeffs", refuse)
    monkeypatch.setattr(mh, "_zcsch_coeffs", refuse)
    assert limit_theorem_check(4, R, (s * u, s * v)).as_dict() == want


def test_limit_theorem_rejects_a_fiber_dimension_other_than_R(curvature_d4):
    _, R = curvature_d4
    with pytest.raises(ValueError, match="fiber dimension 6 does not match "
                                         "the 4 x 4 curvature matrix"):
        limit_theorem_check(6, R, ())
