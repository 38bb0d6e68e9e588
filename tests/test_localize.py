import random
from fractions import Fraction

import pytest

from chernloc.formmatrix import FormMatrix
from chernloc.localize import limit_theorem_check
from chernloc.mehler import CurvatureMatrix, a_hat, heat_prefactor
from chernloc.multiform import GeneratorTable
from chernloc.sampling import random_form
from chernloc.scalars import QC, two_pi_i_inv_pow

from conftest import random_antisymmetric_curvature


# -- the two sides ---------------------------------------------------------------------------


def test_empty_word_gives_characteristic_top_form(curvature_d4):
    _, R = curvature_d4
    rep = limit_theorem_check(4, R, ())
    want = a_hat(R).top_component().scale(two_pi_i_inv_pow(4))
    assert rep.lhs == want and rep.exact_equal


def test_worked_d2_example(curvature_d2):
    # theta_1 = sigma (alpha w) at d = 2: the limit is (2 pi i)^(-1) alpha [w]
    table, R = curvature_d2
    alpha = QC(Fraction(5, 3))
    w = table.gen("w")
    rep = limit_theorem_check(2, R, (table.sigma() * w.scale(alpha),))
    assert rep.lhs == w.scale(alpha).scale(two_pi_i_inv_pow(2))
    assert rep.exact_equal


def test_worked_d4_example_carries_the_simplex_volume(curvature_d4):
    # (sigma u, sigma v) at d = 4: A-hat is 1 below degree four, so the
    # limit is (2 pi i)^(-2) (1/2!) [u v]
    table, R = curvature_d4
    s, u, v = table.sigma(), table.gen("u"), table.gen("v")
    rep = limit_theorem_check(4, R, (s * u, s * v))
    assert rep.lhs == (u * v).scale(Fraction(1, 2)).scale(two_pi_i_inv_pow(4))
    assert rep.exact_equal


def _homogeneous_words(word):
    """The homogeneous sub-words of a word, whose sum it is."""
    words = [()]
    for theta in word:
        words = [prefix + (part,) for prefix in words
                 for part in theta.homogeneous_parts().values()]
    return words


def test_lhs_is_the_sum_over_homogeneous_sub_words():
    # the restriction is multilinear, so a mixed word needs no expansion
    rng = random.Random(20)
    mixed = nontrivial = 0
    for d in (2, 4, 6):
        table = GeneratorTable(d)
        for name in ("u", "v", "w")[: d // 2]:
            table.add_generator(name, 2)
        table.add_generator("x", 1)
        for _ in range(12):
            R = random_antisymmetric_curvature(table, d, rng)
            word = tuple(random_form(table, rng, n_terms=3)
                         for _ in range(rng.randint(1, 2)))
            parts = _homogeneous_words(word)
            mixed += len(parts) > 1
            lhs = limit_theorem_check(d, R, word).lhs
            want = table.zero()
            for hw in parts:
                want += limit_theorem_check(d, R, hw).lhs
            assert lhs == want, (d, word)
            nontrivial += len(parts) > 1 and not lhs.is_zero()
    assert mixed >= 15 and nontrivial >= 3


def test_heat_prefactor_runs_once_on_a_letter_of_two_degrees(monkeypatch):
    # the d = 6 letter of the README, with parts of degrees 1 and 3
    import chernloc.localize as loc
    table = GeneratorTable(6)
    for name in ("u", "v", "w"):
        table.add_generator(name, 2)
    R = CurvatureMatrix.from_rows(table, [
        ["0", "u", "0", "0", "0", "w"], ["-u", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "v", "0", "0"], ["0", "0", "-v", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "w"], ["-w", "0", "0", "0", "-w", "0"]])
    calls = []

    def counted(tau, R):
        calls.append(tau)
        return heat_prefactor(tau, R)

    monkeypatch.setattr(loc, "heat_prefactor", counted)
    rep = limit_theorem_check(6, R, (table.parse("sigma u + sigma u v"),))
    assert rep.exact_equal and not rep.lhs.is_zero()
    assert calls == [1]


def test_zero_restriction_builds_neither_side(curvature_d4, monkeypatch):
    import chernloc.localize as loc
    table, R = curvature_d4
    s, u, v = table.sigma(), table.gen("u"), table.gen("v")

    def refuse(*args):
        raise AssertionError("a side was built for a zero restriction")

    monkeypatch.setattr(loc, "heat_prefactor", refuse)
    monkeypatch.setattr(loc, "a_hat", refuse)
    # a sigma-free slot, a product of degree above d, a zero slot
    for word in ((u,), (s * u, v), (s * (u * v), s * u), (s * u, table.zero())):
        rep = limit_theorem_check(4, R, word)
        assert rep.lhs.is_zero() and rep.rhs.is_zero()
        assert rep.exact_equal and rep.ok


def test_patterns_count_the_splittings_into_one_and_two_slot_blocks(curvature_d2):
    table, R = curvature_d2
    w = table.sigma() * table.gen("w")
    counts = [limit_theorem_check(2, R, (w,) * n).patterns for n in range(6)]
    assert counts == [1, 1, 2, 3, 5, 8]


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
                assert rep.exact_equal, (d, n_word)
                checked += 1
                if not rep.rhs.is_zero():
                    nontrivial += 1
    assert checked >= 16
    assert nontrivial >= 3


def test_limit_theorem_float_words_at_d6_take_the_residual_branch():
    # float word coefficients at exact curvature: both sides multiply the
    # same restriction by exact forms, so they agree exactly and the
    # residual branch is never taken (float curvature takes it, below)
    rng = random.Random(6)
    table = GeneratorTable(6)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    R = random_antisymmetric_curvature(table, 6, rng, density=1.0)
    s, u = table.sigma(), table.gen("u")
    for _ in range(12):
        c1, c2 = (round(rng.uniform(-1, 1), 6) for _ in range(2))
        rep = limit_theorem_check(6, R, ((s * u).scale(c1), s.scale(c2)))
        assert rep.ok and not rep.lhs.is_zero()
        assert rep.lhs == rep.rhs and rep.exact_equal
        assert rep.residual == 0.0


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
