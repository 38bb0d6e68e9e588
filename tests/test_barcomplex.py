import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chernloc.barcomplex import (BarChain, Cochain, b, b0, b1, beta,
                                 cochain_mul, cochain_parity_report,
                                 cyclic_symmetrize, is_cyclic, restrict_i)
from chernloc.multiform import GeneratorTable
from chernloc.sampling import (random_chain, random_form,
                               random_homogeneous_form, random_table,
                               random_word)
from chernloc.scalars import QC


def simple_table():
    t = GeneratorTable(4)
    t.add_generator("x", 1)
    t.add_generator("y", 1)
    t.add_generator("u", 2)
    t.set_differential("x", "u")
    return t


# -- differentials ------------------------------------------------------------------


def test_b0_on_empty_and_single():
    t = simple_table()
    empty = BarChain.from_word(t, ())
    assert b0(empty).is_zero()
    theta = t.parse("x y + sigma u")
    got = b0(BarChain.from_word(t, (theta,)))
    want = BarChain.from_word(t, (theta.d_T(),))
    assert got == want


def test_b1_on_single_and_even_pair():
    t = simple_table()
    assert b1(BarChain.from_word(t, (t.gen("x"),))).is_zero()
    # even-degree f, g: n_1 = |f| - 1 odd, so b1(f, g) = +(f ^ g)
    f, g = t.gen("u"), t.parse("x y")
    got = b1(BarChain.from_word(t, (f, g)))
    assert got == BarChain.from_word(t, (f * g,))


def test_bar_laws_randomized():
    rng = random.Random(42)
    for _ in range(150):
        table = random_table(rng)
        chain = random_chain(table, rng)
        assert b0(b0(chain)).is_zero()
        assert b1(b1(chain)).is_zero()
        assert (b0(b1(chain)) + b1(b0(chain))).is_zero()
        assert b(b(chain)).is_zero()


def _underflow_table():
    # d x = 1e-200 u, so a chain coefficient of 1e-200 times it underflows
    return GeneratorTable.from_text("d 2\nx 1 1e-200 * u\nu 2 0\n")


def test_b0_drops_a_float_coefficient_that_underflows():
    t = _underflow_table()
    chain = BarChain.from_words(t, [(1e-200, (t.gen("x"),))])
    assert not chain.is_zero()
    image = b0(chain)
    assert image.terms == {}
    assert image.is_zero() and image == 0


def test_float_chain_terms_that_cancel_leave_no_zero_coefficient():
    t = _underflow_table()
    x, u = t.gen("x"), t.gen("u")
    a = BarChain.from_words(t, [(0.1, (x,)), (0.25, (u, x)), (1, (u,))])
    c = BarChain.from_words(t, [(-0.1, (x,)), (-0.25, (u, x))])
    # equal term maps: the cancelled words keep no zero coefficient
    assert (a + c).terms == BarChain.from_word(t, (u,)).terms
    assert (a - a).terms == {} and (a + (-a)).terms == {}


# -- cyclic structure ----------------------------------------------------------------


def test_cyclic_single_word():
    t = simple_table()
    ch = cyclic_symmetrize(BarChain.from_word(t, (t.gen("x"),)))
    assert ch == BarChain.from_word(t, (t.gen("x"),))


def test_cyclic_two_word_signs():
    t = simple_table()
    th1 = t.gen("x")          # degree 1
    th2 = t.parse("x y")      # degree 2
    ch = cyclic_symmetrize(BarChain.from_word(t, (th1, th2)))
    n1 = th1.degree() - 1
    n2 = th1.degree() + th2.degree() - 2
    sign = (-1) ** (n1 * (n2 - n1))
    want = BarChain.from_word(t, (th1, th2)) + \
        BarChain.from_word(t, (th2, th1), coeff=sign)
    assert ch == want


def test_symmetrizer_eigen_relation_and_membership():
    rng = random.Random(6)
    for _ in range(80):
        table = random_table(rng)
        word = random_word(table, rng, max_len=4)
        sym = cyclic_symmetrize(BarChain.from_word(table, word))
        for n in {len(w) for w in sym.terms}:
            comp = sym.length_component(n)
            assert cyclic_symmetrize(comp) == comp.scale(max(n, 1))
        assert is_cyclic(sym)


def test_cyclic_span_is_b_stable():
    rng = random.Random(7)
    for _ in range(60):
        table = random_table(rng)
        word = random_word(table, rng, max_len=3)
        sym = cyclic_symmetrize(BarChain.from_word(table, word))
        assert is_cyclic(b(sym))


def test_non_cyclic_detected():
    t = simple_table()
    # (x, xy) alone is not in the cyclic span
    ch = BarChain.from_word(t, (t.gen("x"), t.parse("x y")))
    assert not is_cyclic(ch)


# -- restriction ------------------------------------------------------------------------


def test_restriction_examples():
    t = simple_table()
    s = t.sigma()
    f, g = t.gen("x"), t.gen("y")
    pair = BarChain.from_word(t, (s * f, s * g))
    assert restrict_i(pair) == (f * g).scale(Fraction(1, 2))
    # an entry without sigma part kills the word
    assert restrict_i(BarChain.from_word(t, (s * f, g))).is_zero()
    assert restrict_i(BarChain.from_word(t, ())) == t.one()


def test_restriction_is_the_wedge_of_the_sigma_parts():
    # oracle: split each letter of a word of forms, theta = theta' +
    # sigma theta'', and wedge the theta'' as forms
    rng = random.Random(29)
    nonzero = 0
    for _ in range(60):
        table = random_table(rng)
        word = tuple(random_form(table, rng) for _ in range(rng.randint(0, 3)))
        want = table.one()
        for theta in word:
            want = want * theta.split_sigma()[1]
        want = want.scale(Fraction(1, math.factorial(len(word))))
        assert restrict_i(BarChain.from_word(table, word)) == want
        nonzero += not want.is_zero()
    assert nonzero >= 20


def test_restriction_of_symmetrized_sigma_pure_word():
    # on sigma-pure entries the rotation signs cancel the wedge-reordering
    # signs, so the symmetrized word restricts to N times the original
    rng = random.Random(13)
    for _ in range(40):
        table = random_table(rng)
        n = rng.randint(1, 3)
        word = tuple(table.sigma() * random_form(table, rng, allow_sigma=False)
                     for _ in range(n))
        chain = BarChain.from_word(table, word)
        if chain.is_zero():
            continue
        lhs = restrict_i(cyclic_symmetrize(chain))
        assert lhs == restrict_i(chain).scale(n)


def test_restriction_of_constant_idempotent_chain():
    # dp = 0 leaves only the length-one word, which restricts to tr(p)
    from chernloc.formmatrix import FormMatrix
    from chernloc.fredholm import bismut_chern
    t = simple_table()
    p = FormMatrix.from_scalars(t, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    chain = bismut_chern(p, 5)
    assert chain == BarChain.from_word(t, (t.sigma(),), coeff=2)
    assert restrict_i(chain) == t.scalar(2)


# -- cochains -------------------------------------------------------------------------------


def random_rule_cochain(table, rng, parity, max_arity=2):
    rules = {}
    for _ in range(rng.randint(1, 4)):
        arity = rng.randint(0, max_arity)
        word = []
        ok = True
        for _ in range(arity):
            f = random_homogeneous_form(table, rng)
            if f.is_zero():
                ok = False
                break
            mono = rng.choice(list(f.terms))
            word.append(mono)
        if not ok:
            continue
        word = tuple(word)
        n_par = (sum(table.mono_degree(m) for m in word) - len(word)) & 1
        if n_par != parity:
            continue
        rules[word] = QC(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
    return Cochain.from_rules(table, rules, parity)


def test_unit_cochain_is_neutral():
    rng = random.Random(5)
    table = random_table(rng)
    unit = Cochain.unit(table)
    ell = random_rule_cochain(table, rng, parity=0)
    for _ in range(20):
        word = random_word(table, rng)
        chain = BarChain.from_word(table, word)
        assert cochain_mul(ell, unit).eval_chain(chain) == ell.eval_chain(chain)
        assert cochain_mul(unit, ell).eval_chain(chain) == ell.eval_chain(chain)


def test_cochain_product_associative_brute_force():
    rng = random.Random(15)
    for _ in range(25):
        table = random_table(rng)
        l1 = random_rule_cochain(table, rng, parity=rng.randint(0, 1))
        l2 = random_rule_cochain(table, rng, parity=rng.randint(0, 1))
        l3 = random_rule_cochain(table, rng, parity=rng.randint(0, 1))
        left = cochain_mul(cochain_mul(l1, l2), l3)
        right = cochain_mul(l1, cochain_mul(l2, l3))
        for _ in range(8):
            word = random_word(table, rng, max_len=4)
            chain = BarChain.from_word(table, word)
            assert left.eval_chain(chain) == right.eval_chain(chain)


def test_beta_unit_and_square():
    rng = random.Random(25)
    for _ in range(20):
        table = random_table(rng)
        unit = Cochain.unit(table)
        ell = random_rule_cochain(table, rng, parity=rng.randint(0, 1))
        bb = beta(beta(ell))
        for _ in range(6):
            word = random_word(table, rng, max_len=3)
            chain = BarChain.from_word(table, word)
            assert beta(unit).eval_chain(chain) == QC(0)
            assert bb.eval_chain(chain) == QC(0)


def test_beta_is_a_derivation():
    rng = random.Random(35)
    for _ in range(25):
        table = random_table(rng)
        p1, p2 = rng.randint(0, 1), rng.randint(0, 1)
        l1 = random_rule_cochain(table, rng, parity=p1)
        l2 = random_rule_cochain(table, rng, parity=p2)
        lhs = beta(cochain_mul(l1, l2))
        first = cochain_mul(beta(l1), l2)
        second = cochain_mul(l1, beta(l2))
        sign = QC(-1) if p1 else QC(1)
        for _ in range(8):
            word = random_word(table, rng, max_len=3)
            chain = BarChain.from_word(table, word)
            want = first.eval_chain(chain) + sign * second.eval_chain(chain)
            assert lhs.eval_chain(chain) == want


def test_connection_square_at_arity_zero_is_q_squared():
    import chernloc.fredholm as fredholm
    rng = random.Random(3)
    table = simple_table()
    model = fredholm.random_model(table, rng, 2, 2)
    omega = fredholm.connection_cochain(model)
    value = cochain_mul(omega, omega).eval_word(())
    assert np.allclose(value, model.Q @ model.Q)


def test_bianchi_identity_on_matrix_model():
    import chernloc.fredholm as fredholm
    rng = random.Random(23)
    table = simple_table()
    model = fredholm.random_model(table, rng, 2, 2)
    omega = fredholm.connection_cochain(model)
    F = fredholm.curvature_cochain(model)
    lhs = beta(F)
    right1, right2 = cochain_mul(F, omega), cochain_mul(omega, F)
    for _ in range(30):
        word = random_word(table, rng, max_len=3)
        chain = BarChain.from_word(table, word)
        want = right1.eval_chain(chain) - right2.eval_chain(chain)
        assert np.allclose(lhs.eval_chain(chain), want, atol=1e-12)


def test_cochain_parity_validation():
    import chernloc.fredholm as fredholm
    rng = random.Random(2)
    table = simple_table()
    model = fredholm.random_model(table, rng, 2, 2)
    omega = fredholm.connection_cochain(model)
    words = [random_word(table, rng, max_len=2) for _ in range(10)]
    assert cochain_parity_report(omega, words) == []


@pytest.mark.parametrize("dim_plus, dim_minus", [(3, 1), (1, 3)])
def test_cochain_parity_with_unequal_graded_dimensions(dim_plus, dim_minus):
    import chernloc.fredholm as fredholm
    rng = random.Random(5)
    table = simple_table()
    model = fredholm.random_model(table, rng, dim_plus, dim_minus)
    words = [random_word(table, rng, max_len=2) for _ in range(30)]
    for cochain in (fredholm.connection_cochain(model),
                    fredholm.curvature_cochain(model)):
        assert cochain.dim_plus == dim_plus
        assert cochain_parity_report(cochain, words) == []


def test_chain_nested_list_roundtrip():
    # the rows `chernloc bismut-chern` prints: [coefficient, slots] per word,
    # ordered by length, then word; a sum in a slot is expanded
    t = simple_table()
    x, y, u, s = t.gen("x"), t.gen("y"), t.gen("u"), t.sigma()
    chain = BarChain.from_words(t, [(QC(Fraction(1, 2), -1), (x, s * u)),
                                    (QC(3), (u + x,)), (QC(-2), (s * x, y)),
                                    (QC(1), (x * y, u, y))])
    assert chain.to_lists() == [["3", ["x"]], ["3", ["u"]],
                                ["-2", ["sigma x", "y"]],
                                ["(1/2-i)", ["x", "sigma u"]],
                                ["1", ["x y", "u", "y"]]]


def test_value_kind_mismatch_rejected():
    table = simple_table()
    scalar = Cochain.unit(table)
    matrix = Cochain.unit(table, dim=2)
    with pytest.raises(ValueError):
        cochain_mul(scalar, matrix)


def test_matrix_cochain_grading_checked():
    table = simple_table()
    with pytest.raises(ValueError):
        Cochain.unit(table, dim=4, dim_plus=5)
    balanced = Cochain.unit(table, dim=4)
    assert balanced.dim_plus == 2
    with pytest.raises(ValueError):
        cochain_mul(balanced, Cochain.unit(table, dim=4, dim_plus=3))
