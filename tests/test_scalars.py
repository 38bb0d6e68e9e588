import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chernloc.scalars import (QC, PiScalar, TauPoly, bernoulli_numbers,
                              coerce, is_exact, iszero, two_over_i_pow,
                              two_pi_i_inv_pow)


def test_qc_field_operations():
    a = QC(Fraction(1, 2), Fraction(-1, 3))
    b = QC(2, 1)
    assert a + b == QC(Fraction(5, 2), Fraction(2, 3))
    assert a * b == QC(Fraction(4, 3), Fraction(-1, 6))
    assert (a / b) * b == a
    assert a - a == QC(0)
    assert QC(a.re, -a.im) == QC(Fraction(1, 2), Fraction(1, 3))
    assert QC(0, 1) ** 2 == QC(-1)
    assert QC(0, 2) ** -1 == QC(0, Fraction(-1, 2))


def test_qc_float_fallback():
    a = QC(1, 2)
    assert a + 0.5 == complex(1.5, 2.0)
    assert isinstance(a * 1.0, complex)
    assert complex(a) == 1 + 2j


def test_coercion_rules():
    assert coerce(3) == QC(3)
    assert coerce(Fraction(1, 2)) == QC(Fraction(1, 2))
    assert isinstance(coerce(0.5), complex)
    assert iszero(QC(0)) and iszero(0j) and not iszero(QC(1))
    with pytest.raises(TypeError):
        coerce("nope")


def test_tau_poly_ring_and_calculus():
    t = TauPoly.var(1)
    p = t * t + TauPoly.const(3) + TauPoly({-1: QC(2)})
    assert p(2) == QC(4) + QC(3) + QC(1)
    dp = p.derivative()
    assert dp == TauPoly({1: QC(2), -2: QC(-2)})
    assert (p - p) == 0
    assert (t ** 3) / TauPoly.var(2) == t
    assert p / t == TauPoly({1: QC(1), -1: QC(3), -2: QC(2)})
    with pytest.raises(ZeroDivisionError):
        p / (t + TauPoly.const(1))


def test_tau_poly_negative_powers_of_monomials_only():
    t = TauPoly.var(1)
    assert t ** -2 == TauPoly.var(-2)
    assert TauPoly.var(3, QC(2)) ** -1 == TauPoly.var(-3, QC(Fraction(1, 2)))
    assert t ** 0 == TauPoly.const(1)
    with pytest.raises(ZeroDivisionError):
        (t + TauPoly.const(1)) ** -1


def test_pi_scalar_arithmetic():
    x = PiScalar(QC(2), -1)
    y = PiScalar(QC(3), -1)
    assert x + y == PiScalar(QC(5), -1)
    assert x * y == PiScalar(QC(6), -2)
    assert (x / y) == PiScalar(QC(Fraction(2, 3)), 0)
    # pi is transcendental, so different powers add as independent terms
    s = x + PiScalar(QC(1), 0)
    assert s.terms == {-1: QC(2), 0: QC(1)} and str(s) == "2*pi^-1 + 1"
    assert s == x + 1 and s - x == 1
    assert abs(complex(s) - (2 / math.pi + 1)) < 1e-12
    assert PiScalar(QC(0), 5) == 0
    assert abs(complex(x) - 2 / 3.141592653589793) < 1e-12


def test_tau_and_pi_do_not_mix():
    t, p = TauPoly.const(1), PiScalar(2, 0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(t, p)
        with pytest.raises(TypeError):
            op(p, t)
    assert t != p and t == 1 and p == 2


def test_a_float_coefficient_stays_inexact():
    t = TauPoly({0: 0.1})
    assert t.terms == {0: 0.1 + 0j} and str(t) == "(0.1+0j)"
    assert not is_exact(t) and is_exact(TauPoly({0: Fraction(1, 10)}))
    assert not is_exact(TauPoly.var(1) * 0.5) and not is_exact(PiScalar(0.5, 1))


def test_supertrace_constants():
    assert two_over_i_pow(2) == QC(0, -2)
    assert two_over_i_pow(4) == QC(-4)
    # (2/i)^(d/2) (4 pi)^(-d/2) = (2 pi i)^(-d/2)
    for d in (2, 4, 6):
        lhs = PiScalar(two_over_i_pow(d) * QC(Fraction(1, 4 ** (d // 2))),
                       -(d // 2))
        assert lhs == two_pi_i_inv_pow(d)
    with pytest.raises(ValueError):
        two_over_i_pow(3)
    with pytest.raises(ValueError):
        two_over_i_pow(-2)
    # the closed form against repeated products of -2i
    power = QC(1)
    for d in range(0, 42, 2):
        assert two_over_i_pow(d) == power
        power = power * QC(0, -2)


def test_bernoulli_values():
    b = bernoulli_numbers(8)
    assert b[0] == 1
    assert b[2] == Fraction(1, 6)
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)


exact_reals = st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**6))


@given(exact_reals, st.integers(-3, 3))
def test_hashes_agree_with_equality(x, pi):
    assert QC(x) == x and hash(QC(x)) == hash(x)
    assert PiScalar(x, 0) == x and hash(PiScalar(x, 0)) == hash(x)
    assert TauPoly.const(x) == x and hash(TauPoly.const(x)) == hash(x)
    # equal values of different construction hash alike
    assert hash(PiScalar(QC(x), pi)) == hash(PiScalar(x, pi))
    assert hash(QC(x, 1)) == hash(QC(Fraction(x), Fraction(1)))


def test_qc_compares_exactly_with_floats():
    # like Fraction against float: equal only when the values are equal
    assert QC(Fraction(1, 3)) != 1 / 3
    assert QC(Fraction(1, 3)) != complex(1 / 3, 0)
    assert QC(Fraction(1, 2), Fraction(1, 4)) == 0.5 + 0.25j
    assert QC(Fraction(1, 2)) == 0.5
    assert QC(1, 1) != 1 + 1.5j
    assert QC(1, 1) == 1 + 1j and hash(QC(1, 1)) == hash(1 + 1j)


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_qc_hashes_like_equal_complex(re, im):
    z = complex(re, im)
    q = QC(Fraction(re), Fraction(im))
    assert q == z and hash(q) == hash(z)


def test_scalars_as_keys_next_to_ints():
    table = {1: "one", Fraction(1, 2): "half", 0: "zero"}
    assert table[QC(1)] == "one"
    assert table[QC(Fraction(1, 2))] == "half"
    assert table[PiScalar(QC(1), 0)] == "one"
    assert table[PiScalar(QC(0), 3)] == "zero"
    assert table[TauPoly()] == "zero"
    assert len({1, QC(1), PiScalar(1, 0), TauPoly.const(1)}) == 1
    assert len({QC(0, 1), QC(0, 1), PiScalar(QC(0, 1), 0)}) == 1
    assert len({PiScalar(2, 1), PiScalar(QC(2), 1), PiScalar(2, 2), 2}) == 3


qcs = st.builds(QC, exact_reals, exact_reals)
small_floats = st.floats(-1e6, 1e6, allow_nan=False)


@given(qcs, qcs, qcs)
def test_qc_field_laws_hold_exactly(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + QC(0) == a and a * QC(1) == a and a - a == QC(0)


@given(qcs)
def test_qc_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == QC(1)
        assert a / a == QC(1) and 1 / a == a.inverse()


@given(qcs, exact_reals)
def test_qc_mixes_exactly_with_int_and_fraction(a, x):
    q = QC(x)
    pairs = [(a + x, a + q), (x + a, q + a), (a - x, a - q), (x - a, q - a),
             (a * x, a * q), (x * a, q * a)]
    if x:
        pairs.append((a / x, a / q))
    if a:
        pairs.append((x / a, q / a))
    for got, want in pairs:
        assert isinstance(got, QC) and got == want


@given(qcs, small_floats)
def test_qc_with_a_float_operand_gives_complex(a, f):
    z = complex(a)
    pairs = [(a + f, z + f), (f + a, f + z), (a - f, z - f), (f - a, f - z),
             (a * f, z * f), (f * a, f * z), (a * complex(f, 1), z * complex(f, 1))]
    if f:
        pairs.append((a / f, z / f))
    for got, want in pairs:
        assert type(got) is complex
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- the (re_num, im_num, den) representation ----------------------------------------

exact_operands = st.one_of(qcs, exact_reals, st.booleans())


def _canonical(q):
    n, m, d = q.re_num, q.im_num, q.den
    return (type(n) is type(m) is type(d) is int and d > 0
            and math.gcd(n, m, d) == 1)


@given(qcs, exact_operands, st.integers(-4, 4))
def test_qc_results_are_canonical(a, x, k):
    results = [a + x, x + a, a - x, x - a, a * x, x * a, -a, QC(a.re, -a.im),
               QC(a.re, a.im)]
    if x:
        results.append(a / x)
    if a:
        results += [x / a, a.inverse(), a ** k]
    else:
        results.append(a ** abs(k))
    for q in results:
        assert isinstance(q, QC) and _canonical(q), q


small_parts = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-2, max_value=2, max_denominator=4))


@given(small_parts, small_parts, small_parts, small_parts)
def test_qc_equal_exactly_when_parts_equal(a, b, c, e):
    p, q = QC(a, b), QC(c, e)
    assert (p == q) == ((Fraction(a), Fraction(b)) == (Fraction(c), Fraction(e)))
    assert (p.re, p.im) == (a, b)
    if p == q:
        assert hash(p) == hash(q)


dyadics = st.builds(lambda n, k: Fraction(n, 2 ** k),
                    st.integers(-2**20, 2**20), st.integers(0, 20))
dyadic_qcs = st.builds(QC, dyadics, dyadics)


@given(dyadic_qcs, dyadic_qcs)
@example(QC(Fraction(1, 8192), 11586), QC(0))   # |a|^2 needs 55 bits
def test_qc_hash_agrees_with_every_equal_number(a, b):
    for q in (a + b, a * b, a - b, a * QC(a.re, -a.im)):
        # a product may need more than 53 bits; its float is then a
        # different number, and the two must compare unequal
        z = complex(q)
        exact = Fraction(z.real) == q.re and Fraction(z.imag) == q.im
        assert (q == z) == exact
        if exact:
            assert hash(q) == hash(z)
        if not q.im_num:
            assert q == q.re and hash(q) == hash(q.re)
            if q.den == 1:
                assert q == q.re_num and hash(q) == hash(q.re_num)


@given(qcs)
def test_qc_division_by_zero_raises(a):
    for zero in (0, Fraction(0), False, QC(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    with pytest.raises(ZeroDivisionError):
        QC(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QC(0) ** -1


# -- the Laurent ring, in tau and in pi ---------------------------------------------

laurent_powers = st.integers(-3, 3)
laurent_coeffs = st.builds(QC, small_parts, small_parts)
# up to four terms of powers in [-3, 3]; a monomial has one nonzero term
laurent_terms = st.dictionaries(laurent_powers, laurent_coeffs, max_size=4)
monomial_terms = st.tuples(laurent_powers, laurent_coeffs.filter(bool))


def laurent(cls, terms):
    """The polynomial with these terms, as a sum of monomials."""
    return sum((cls.var(k, c) for k, c in terms.items()), cls.const(0))


@pytest.mark.parametrize("cls", [TauPoly, PiScalar])
@given(laurent_terms, laurent_terms, laurent_terms)
def test_laurent_ring_laws_hold_exactly(cls, ta, tb, tc):
    a, b, c = laurent(cls, ta), laurent(cls, tb), laurent(cls, tc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a and a - a == 0 and -(-a) == a
    assert a + 0 == a and a * 1 == a and a * 0 == 0
    assert a * b == sum((cls.var(ka + kb, ca * cb) for ka, ca in a for kb, cb in b),
                        cls.const(0))


@pytest.mark.parametrize("cls", [TauPoly, PiScalar])
@given(laurent_terms, laurent_terms)
def test_laurent_derivative_obeys_leibniz(cls, ta, tb):
    a, b = laurent(cls, ta), laurent(cls, tb)
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert (a + b).derivative() == a.derivative() + b.derivative()
    assert cls.var(3, 2).derivative() == cls.var(2, 6)


@pytest.mark.parametrize("cls", [TauPoly, PiScalar])
@given(laurent_terms, monomial_terms)
def test_laurent_division_by_a_monomial_inverts_the_product(cls, ta, km):
    a, m = laurent(cls, ta), cls.var(*km)
    assert (a / m) * m == a
    assert (a * m) / m == a
    assert m ** -2 * m ** 2 == 1


@pytest.mark.parametrize("cls", [TauPoly, PiScalar])
@given(laurent_terms, monomial_terms, small_parts)
def test_laurent_equal_values_hash_alike(cls, ta, km, x):
    a, m = laurent(cls, ta), cls.var(*km)
    for b in (a + 0, a * 1, (a - m) + m, -(-a), (a * m) / m, a + a - a):
        assert b == a and hash(b) == hash(a)
    const = cls.const(x)
    assert const == x and hash(const) == hash(x)
    assert (const + a) - a == x and hash((const + a) - a) == hash(x)
