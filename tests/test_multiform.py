import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chernloc.multiform import (GeneratorTable, TableMismatchError,
                                check_dga, exp_nilpotent, inverse_unit,
                                log_one_plus)
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


def test_table_mismatch_rejected():
    t1, t2 = simple_table(), simple_table()
    with pytest.raises(TableMismatchError):
        t1.gen("x") * t2.gen("x")


seeds = st.integers(0, 2**32)
# complex coefficients whose parts have different denominators
complex_coeffs = st.builds(QC, st.fractions(max_denominator=60),
                           st.fractions(max_denominator=60))


@given(seeds, st.lists(complex_coeffs, min_size=1, max_size=4))
@example(4, [QC(Fraction(1, 2), Fraction(-2, 3)), QC(Fraction(-5, 6), Fraction(7, 4))])
def test_serialization_roundtrip(seed, coeffs):
    rng = random.Random(seed)
    table = random_table(rng)
    theta = random_form(table, rng)
    for c in coeffs:
        theta = theta + random_form(table, rng, n_terms=1).scale(c)
    assert table.parse(theta.canonical_str()) == theta


# exact coefficients that collide and cancel, and floats whose products
# underflow to 0.0
exact_or_float = st.one_of(
    st.builds(QC, st.fractions(max_denominator=4), st.fractions(max_denominator=4)),
    st.sampled_from([1e-200, -1e-200, 1e-300, 0.5, -0.5]).map(complex),
    st.floats(-4, 4).map(complex))
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
    lg = log_one_plus(u)
    assert exp_nilpotent(lg) == t.one() + u
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
