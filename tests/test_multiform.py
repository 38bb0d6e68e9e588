import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chernloc.multiform import (GeneratorTable, TableMismatchError,
                                check_dga, exp_nilpotent, inverse_unit)
from chernloc.sampling import (random_form, random_homogeneous_form,
                               random_table)
from chernloc.scalars import QC, iszero


def simple_table():
    t = GeneratorTable(4)
    t.add_generator("x", 1)
    t.add_generator("y", 1)
    t.add_generator("u", 2)
    t.set_differential("x", "u")
    return t


def test_sigma_squares_to_zero():
    t = simple_table()
    s = t.sigma()
    assert (s * s).is_zero()


def test_unit_is_neutral():
    t = simple_table()
    a = t.parse("2 * x y + sigma u")
    assert t.one() * a == a
    assert a * t.one() == a


def test_degree_one_generators_anticommute():
    t = simple_table()
    x, y = t.gen("x"), t.gen("y")
    assert (x * y + y * x).is_zero()
    assert (x * x).is_zero()


def test_koszul_sign_randomized():
    rng = random.Random(20)
    for _ in range(200):
        table = random_table(rng)
        a = random_homogeneous_form(table, rng)
        b = random_homogeneous_form(table, rng)
        if a.is_zero() or b.is_zero():
            continue
        sign = -1 if (a.degree() % 2) and (b.degree() % 2) else 1
        assert a * b == (b * a).scale(sign)


def test_truncation_above_top_degree():
    t = simple_table()
    u = t.gen("u")
    assert not (u * u).is_zero()          # degree 4 = top
    assert (u * u * u).is_zero()          # degree 6 > top, silently dropped
    rng = random.Random(3)
    for _ in range(100):
        table = random_table(rng)
        f = random_form(table, rng) * random_form(table, rng)
        for mono in f.terms:
            assert table.mono_nonsigma_degree(mono) <= table.top_degree


def test_split_sigma_definition():
    t = simple_table()
    f = t.parse("x y + 2 * u")
    s = t.sigma()
    prime, second = (s * f).split_sigma()
    assert prime.is_zero() and second == f
    prime, second = f.split_sigma()
    assert prime == f and second.is_zero()


def test_split_sigma_roundtrip_random():
    rng = random.Random(8)
    for _ in range(200):
        table = random_table(rng)
        theta = random_form(table, rng)
        prime, second = theta.split_sigma()
        assert prime + table.sigma() * second == theta
        assert not any((m and m[0] == 0) for m in prime.terms)
        assert not any((m and m[0] == 0) for m in second.terms)


def test_d_T_on_sigma_part():
    # d_T(sigma h) = -sigma dh - h: the sign on the first term is forced by
    # d_T^2 = 0 (d is an odd derivation past the odd variable sigma)
    t = simple_table()
    s, x, u = t.sigma(), t.gen("x"), t.gen("u")
    got = (s * x).d_T()
    want = -(s * x.d()) - x
    assert got == want
    assert x.d() == u
    assert got.d_T().is_zero()


def test_d_T_kills_constants():
    t = simple_table()
    assert t.scalar(QC(3, 2)).d_T().is_zero()


def test_d_T_squares_to_zero_randomized():
    rng = random.Random(77)
    tables = [random_table(rng) for _ in range(25)]
    for trial in range(1000):
        table = tables[trial % len(tables)]
        theta = random_form(table, rng)
        assert theta.d_T().d_T().is_zero()


def test_d_T_is_odd():
    rng = random.Random(12)
    for _ in range(50):
        table = random_table(rng)
        theta = random_homogeneous_form(table, rng)
        if theta.is_zero():
            continue
        image = theta.d_T()
        if image.is_zero():
            continue
        assert image.parity() == (theta.parity() ^ 1)


def test_check_dga_pass_and_fail():
    good = GeneratorTable.build(4, [("x", 1, "y"), ("y", 2, None)])
    assert check_dga(good).ok

    bad = GeneratorTable.build(4, [("x", 1, "y"), ("y", 2, "x y")])
    report = check_dga(bad)
    assert not report.ok
    assert any("d^2" in f for f in report.failures)

    empty = GeneratorTable(2)
    assert check_dga(empty).ok


def test_check_dga_degree_bookkeeping():
    t = GeneratorTable(4)
    t.add_generator("x", 1)
    t.add_generator("u", 2)
    t.set_differential("u", "x")      # degree 1, expected 3
    report = check_dga(t)
    assert not report.ok
    assert any("degree" in f for f in report.failures)


def test_tables_refuse_what_check_dga_no_longer_checks():
    # sigma stays closed and every other generator has degree >= 1, because
    # the table refuses anything else when it is written
    t = GeneratorTable(4)
    t.add_generator("x", 1)
    with pytest.raises(ValueError, match="sigma has no assignable differential"):
        t.set_differential("sigma", "x")
    with pytest.raises(ValueError, match="degree >= 1"):
        t.add_generator("z", 0)
    assert t.names == ("sigma", "x") and t.differential(0).is_zero()


def test_table_mismatch_rejected():
    t1, t2 = simple_table(), simple_table()
    with pytest.raises(TableMismatchError):
        t1.gen("x") * t2.gen("x")


@pytest.mark.parametrize("top", [4.7, 4.0, True, "4"])
def test_non_integer_top_degree_is_rejected_by_value(top):
    with pytest.raises(ValueError, match=f"top degree must be an integer, got {top!r}"):
        GeneratorTable(top)


@pytest.mark.parametrize("degree", [1.9, 2.0, True])
def test_non_integer_generator_degree_is_rejected_by_value(degree):
    table = GeneratorTable(4)
    with pytest.raises(ValueError, match=f"degree of 'z' must be an integer, got {degree!r}"):
        table.add_generator("z", degree)
    assert table.names == ("sigma",)


@pytest.mark.parametrize("text, message", [
    ("d 4\nx 1.5 u\nu 2 0\n", "line 2: degree of 'x' must be an integer, got '1.5'"),
    ("# top degree\nd four\nx 1 0\n", "line 2: top degree must be an integer, got 'four'"),
    # int() alone reads digit-group underscores and non-ASCII digits
    ("d 1_0\nx 1 0\n", "line 1: top degree must be an integer, got '1_0'"),
    ("d \u0664\nx 1 0\n", "line 1: top degree must be an integer, got '\u0664'"),
    ("d 4\nx 1_0 0\n", "line 2: degree of 'x' must be an integer, got '1_0'"),
])
def test_table_text_names_the_line_of_a_degree_that_is_not_an_integer(text, message):
    with pytest.raises(ValueError) as info:
        GeneratorTable.from_text(text)
    assert str(info.value) == message


def test_a_generator_named_i_is_refused():
    # form text reads a bare i as the imaginary unit: with a generator i,
    # i times x would print as "i * x" and read back as the product i x
    table = GeneratorTable(4)
    for make in (lambda: table.add_generator("i", 1),
                 lambda: GeneratorTable.from_text("d 4\nx 1 0\ni 1 0\n")):
        with pytest.raises(ValueError, match="generator name 'i' is the imaginary unit"):
            make()
    assert table.names == ("sigma",)


seeds = st.integers(0, 2**32)
# complex coefficients whose parts have different denominators
complex_coeffs = st.builds(QC, st.fractions(max_denominator=60),
                           st.fractions(max_denominator=60))


# exact coefficients that collide and cancel, and floats whose products
# underflow to 0.0
exact_or_float = st.one_of(
    st.builds(QC, st.fractions(max_denominator=4), st.fractions(max_denominator=4)),
    st.sampled_from([1e-200, -1e-200, 1e-300, 0.5, -0.5]).map(complex),
    st.floats(-4, 4).map(complex))


@given(seeds, st.lists(st.one_of(complex_coeffs, exact_or_float), min_size=1, max_size=4))
@example(4, [QC(Fraction(1, 2), Fraction(-2, 3)), QC(Fraction(-5, 6), Fraction(7, 4))])
@example(4, [complex(-0.0, -2.5), complex(1e-300, 0), complex(0.1, -0.0),
             1e-05j, complex(1e20, -0.25), complex(-0.0, 1.0)])
def test_serialization_roundtrip(seed, coeffs):
    # the printed text reads back to the same form, an exact coefficient as
    # a QC and a float one (printed the Python way, "(0.5+0j)") as a complex
    rng = random.Random(seed)
    table = random_table(rng)
    theta = random_form(table, rng)
    for c in coeffs:
        theta = theta + random_form(table, rng, n_terms=1).scale(c)
    back = table.parse(theta.canonical_str())
    assert back == theta
    assert all(type(back.terms[m]) is type(c) for m, c in theta.terms.items())


def test_a_table_with_a_decimal_differential_reads_back():
    t = GeneratorTable.from_text("d 4\nx 1 0.5 * u\nu 2 0\n")
    doc = t.to_text()
    assert doc == "d 4\nx 1 (0.5+0j) * u\nu 2 0\n"
    back = GeneratorTable.from_text(doc)
    assert back.to_text() == doc
    (u,) = back.gen("u").terms
    assert back.differential(1).terms == {u: 0.5} == t.differential(1).terms
    assert type(back.differential(1).terms[u]) is complex
basis_terms = st.lists(st.tuples(st.integers(0, 5), exact_or_float), max_size=5)


@given(basis_terms, basis_terms)
@example([(1, 1e-200)], [(2, 1e-200)])                 # x * y underflows
@example([(1, QC(1)), (2, 0.5)], [(1, QC(-1)), (2, -0.5)])  # x + y cancels
def test_arithmetic_results_hold_no_zero_coefficient(a, b):
    t = simple_table()
    x, y, u, sigma = t.gen("x"), t.gen("y"), t.gen("u"), t.sigma()
    basis = [t.one(), x, y, u, sigma, sigma * x]
    f = sum((basis[i].scale(c) for i, c in a), t.zero())
    g = sum((basis[i].scale(c) for i, c in b), t.zero())
    for h in (f + g, f * g, g * f, -f, f - g):
        assert not any(iszero(c) for c in h.terms.values())


@given(seeds, exact_or_float)
@example(3, 0.5)
def test_d_T_is_d_minus_iota(seed, scale):
    # d_T sums the memoized monomial terms of d_T; d - iota is its oracle,
    # in value and in coefficient type
    rng = random.Random(seed)
    table = random_table(rng)
    f = random_form(table, rng, n_terms=rng.randint(1, 8)).scale(scale)
    got, want = f.d_T(), f.d() - f.iota()
    assert got == want
    assert all(type(got.terms[m]) is type(c) for m, c in want.terms.items())


def test_canonical_text_form():
    # terms are listed by increasing degree, then monomial
    t = simple_table()
    f = t.parse("3/2 * x u + sigma y")
    assert f.canonical_str() == "1 * sigma y + 3/2 * x u"
    assert t.parse("0").is_zero()


def test_parse_exponent_literals():
    # the sign of an exponent does not start a new term, and an exponent
    # makes a literal inexact, like a decimal point
    t = simple_table()
    (x,), (u,) = t.gen("x").terms, t.gen("u").terms
    f = t.parse("1e-3 * x - 2.5E+2 u")
    assert f.terms[x] == 1e-3 and isinstance(f.terms[x], complex)
    assert f.terms[u] == -250.0 and isinstance(f.terms[u], complex)
    assert t.parse("2e-1i x").terms[x] == 0.2j
    assert t.parse("x-u") == t.gen("x") - t.gen("u")
    assert t.parse("1/2 x - u").terms[x] == QC(Fraction(1, 2))


def test_parse_rejects_unknown_names_and_zero_denominators():
    t = simple_table()
    with pytest.raises(ValueError, match="unknown generator 'q'"):
        t.parse("3 * q")
    with pytest.raises(ValueError, match="unknown generator 'q'"):
        t.parse("x q^2")
    for text in ("1/0 * x", "1/0i x", "(1/0+1i) x", "(1+1/0i) x"):
        with pytest.raises(ValueError, match="zero denominator"):
            t.parse(text)
    # 'i' is the imaginary unit, not a generator
    (x,) = t.gen("x").terms
    assert t.parse("i x").terms[x] == QC(0, 1)


def test_parse_parenthesized_literals():
    t = GeneratorTable(4)
    t.add_generator("w", 2)
    (w,) = t.gen("w").terms
    assert t.parse("(1/2) * w").terms == {w: QC(Fraction(1, 2))}
    assert t.parse("(2)") == t.scalar(2)
    assert t.parse("-(1)") == t.scalar(-1)
    assert t.parse("(1+0i) * w") == t.gen("w")
    assert t.parse("(-i) w") == t.gen("w").scale(QC(0, -1))
    # a sum in parentheses is not expanded; the error names it
    with pytest.raises(ValueError, match=r"'\(1 \+ w\)' is not a number literal"):
        t.parse("-(1 + w)")
    with pytest.raises(ValueError, match="unbalanced or nested parentheses"):
        t.parse("((1)) w")


# form text and the repr of the form it reads as
PINNED_READINGS = [
    ("(1/2i)", "<form 1/2i>"),
    ("1/2i", "<form 1/2i>"),
    ("-(1)", "<form -1>"),
    ("2e-1i x", "<form 0.2j * x>"),
    ("(1e-3+1i) x", "<form (0.001+1j) * x>"),
    ("x - -u", "<form 1 * x + 1 * u>"),
    ("3 4 x", "<form 12 * x>"),
    ("(1)(2) x", "<form 2 * x>"),
    ("i i", "<form -1>"),
    ("x^0", "<form 1>"),
    ("0", "<form 0>"),
    ("", "<form 0>"),
    ("  ", "<form 0>"),
    ("x", "<form 1 * x>"),
    ("-x", "<form -1 * x>"),
    ("+ x", "<form 1 * x>"),
    ("- - x", "<form 1 * x>"),
    ("x y", "<form 1 * x y>"),
    ("y x", "<form -1 * x y>"),
    ("x x", "<form 0>"),
    ("u^2", "<form 1 * u^2>"),
    ("u^3", "<form 0>"),
    ("sigma", "<form 1 * sigma>"),
    ("sigma^2", "<form 0>"),
    ("sigma x", "<form 1 * sigma x>"),
    ("2 * x y + sigma u", "<form 1 * sigma u + 2 * x y>"),
    ("3/2 * x u + sigma y", "<form 1 * sigma y + 3/2 * x u>"),
    ("1 * sigma y + 3/2 * x u", "<form 1 * sigma y + 3/2 * x u>"),
    ("x-u", "<form 1 * x + -1 * u>"),
    ("1/2 x - u", "<form 1/2 * x + -1 * u>"),
    ("1e-3 * x - 2.5E+2 u", "<form (0.001+0j) * x + (-250+0j) * u>"),
    (".5 x", "<form (0.5+0j) * x>"),
    ("5. u", "<form (5+0j) * u>"),
    ("1.e2", "<form (100+0j)>"),
    ("2.5i * u", "<form 2.5j * u>"),
    ("i x", "<form i * x>"),
    ("-i * x", "<form -i * x>"),
    ("(1+2i) * u", "<form (1+2i) * u>"),
    ("(1-i) x", "<form (1-i) * x>"),
    ("(1/2-3i) x", "<form (1/2-3i) * x>"),
    ("(2.5E+2-1e-1i) x", "<form (250-0.1j) * x>"),
    ("(1 + 2 i) u", "<form (1+2i) * u>"),
    ("( 1 ) x", "<form 1 * x>"),
    ("(1 / 2) u", "<form 1/2 * u>"),
    ("(-2i) y", "<form -2i * y>"),
    ("(+1) x", "<form 1 * x>"),
    ("(1/2+0.5i) u", "<form (0.5+0.5j) * u>"),
    ("x*y", "<form 1 * x y>"),
    ("x*(2)", "<form 2 * x>"),
    ("2(3)", "<form 6>"),
    ("(2)x", "<form 2 * x>"),
    ("x^2", "<form 0>"),
    ("u y^1 u^0", "<form 1 * y u>"),
    ("10 x + 3/4 y", "<form 10 * x + 3/4 * y>"),
    ("0.1 * 0.2 * 0.3 u", "<form (0.006000000000000001+0j) * u>"),
    ("x + y - x", "<form 1 * y>"),
    ("u x y", "<form 1 * x y u>"),
    ("(1/2-3/4i) * u", "<form (1/2-3/4i) * u>"),
    ("-1/2i * x", "<form -1/2i * x>"),
]


@pytest.mark.parametrize("text, reading", PINNED_READINGS)
def test_pinned_readings(text, reading):
    assert repr(simple_table().parse(text)) == reading


def test_a_huge_power_is_read_in_at_most_top_degree_plus_one_products():
    t = simple_table()
    assert t.parse("u^1000000000000 x") == t.zero()
    assert t.parse("u^2") == t.gen("u") * t.gen("u")


@pytest.mark.parametrize("text, message", [
    ("2*-x", "sign '-' after '*' in '2*-x'"),
    ("2 * - x", "sign '-' after '*' in '2 * - x'"),
    ("2 * -sigma u", "sign '-' after '*' in '2 * -sigma u'"),
    ("x *", "'x *' ends in the operator '*'"),
    ("* x", "'*' without a factor before it in '* x'"),
    ("x * * y", "'*' without a factor before it in 'x * * y'"),
    ("x + * y", "'*' without a factor before it in 'x + * y'"),
    ("x +", "'x +' ends in the operator '+'"),
    ("+", "'+' ends in the operator '+'"),
    ("-", "'-' ends in the operator '-'"),
    ("2x", "'2x' is not a number literal"),
    ("x^", "'x^' is not a number literal"),
    # digits are ASCII: Arabic-Indic three and two are not read as 3 and 2
    ("\u0663 * u", "'\u0663' is not a number literal"),
    ("u^\u0662", "'u^\u0662' is not a number literal"),
    # and spaces are ASCII: a no-break space does not separate two factors
    ("u\u00a0u", "'u\\xa0u' is not a number literal"),
    ("(1 2) x", "'(1 2)' is not a number literal; a parenthesized sum is not expanded"),
    ("1e400 x", "'1e400' overflows a float"),
    ("(1e400+1i) x", "'(1e400+1i)' overflows a float"),
])
def test_parse_refuses_text_it_cannot_read(text, message):
    with pytest.raises(ValueError) as info:
        simple_table().parse(text)
    assert str(info.value) == message


def test_parse_exponents_in_complex_literals():
    t = simple_table()
    (x,) = t.gen("x").terms
    c = t.parse("(1e-3+1i) * x").terms[x]
    assert c == complex(1e-3, 1) and isinstance(c, complex)
    c = t.parse("(2.5E+2-1e-1i) x").terms[x]
    assert c == complex(250, -0.1) and isinstance(c, complex)
    assert t.parse("(1/2-3i) x").terms[x] == QC(Fraction(1, 2), -3)


def test_table_text_roundtrip():
    t = simple_table()
    doc = t.to_text()
    t2 = GeneratorTable.from_text(doc)
    assert t2.top_degree == t.top_degree
    assert t2.names == t.names
    x2 = t2.gen("x")
    assert x2.d() == t2.gen("u")


@given(seeds)
def test_random_table_text_roundtrip(seed):
    t = random_table(random.Random(seed))
    t2 = GeneratorTable.from_text(t.to_text())
    assert t2.top_degree == t.top_degree
    assert t2.names == t.names
    for gid in range(1, len(t.names)):
        assert t2.degree_of(gid) == t.degree_of(gid)
        assert t2.differential(gid).terms == t.differential(gid).terms


def test_series_helpers():
    t = simple_table()
    u = t.gen("u")
    e = exp_nilpotent(u)
    assert e == t.one() + u + (u * u).scale(Fraction(1, 2))
    f = t.one().scale(2) + u
    assert inverse_unit(f) * f == t.one()


def test_inverse_of_a_float_unit_walks_only_the_nilpotent_powers(monkeypatch):
    # 49.0 * (1 / 49.0) rounds to 1 - 2^-53; that residue must not stay in
    # the nilpotent part, or the walk runs until its powers underflow
    import chernloc.multiform as mf
    t = simple_table()
    u = t.gen("u")                     # u^2 != 0, u^3 = 0
    f = t.scalar(49.0) + u
    products = []
    mul = mf.FormElement.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(mf.FormElement, "__mul__", counted)
    inv = inverse_unit(f)
    assert len(products) == 3          # u, u^2 and the vanishing u^3
    monkeypatch.undo()
    assert inv.constant_term() == 1 / 49.0
    assert set(inv.terms) == {(), *(u * u).terms, *u.terms}
    residual = inv * f - t.one()
    assert all(abs(c) < 1e-15 for c in residual.terms.values())


def test_homogeneous_parts_and_degree():
    t = simple_table()
    s = t.sigma()
    theta = t.gen("x") + s * t.gen("u")   # degrees 1 and 1
    assert theta.degree() == 1
    mixed = t.gen("x") + t.gen("u")
    with pytest.raises(ValueError):
        mixed.degree()
    parts = mixed.homogeneous_parts()
    assert parts[1] == t.gen("x") and parts[2] == t.gen("u")
