"""The product kernel behind every form product, matrix product, power sum
and differential, against oracles that use neither it nor the table memos."""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from chernloc.formmatrix import FormMatrix, mat_powers, power_sum
from chernloc.multiform import FormElement, GeneratorTable
from chernloc.sampling import random_form, random_homogeneous_form, random_table
from chernloc.scalars import QC_ZERO

seeds = st.integers(min_value=0, max_value=10 ** 6)
# Float coefficients are small dyadic complex numbers, so every sum and
# product below is exact in floating point and the kernel must match the
# oracles exactly, whatever order it accumulates in.
inexact = st.booleans()


def _float_form(form, rng):
    return FormElement(form.table, {m: complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 4
                                    for m in form.terms})


def _form(table, rng, floats, **kw):
    form = random_form(table, rng, **kw)
    return _float_form(form, rng) if floats else form


def _matrix(table, rng, n, m, floats):
    return FormMatrix(table, [[_form(table, rng, floats) for _ in range(m)]
                              for _ in range(n)])


def naive_mul(a, b):
    """a * b term by term through mul_monomials, with no memo."""
    table = a.table
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono, sign = table.mul_monomials(ma, mb)
            if mono is not None:
                out[mono] = out.get(mono, QC_ZERO) + (ca * cb if sign > 0 else -(ca * cb))
    return FormElement(table, out)


def naive_matmul(a, b):
    """The triple loop over entries, each product formed by naive_mul."""
    table = a.table
    n, k = a.shape
    m = b.shape[1]
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = table.zero()
            for t in range(k):
                acc = acc + naive_mul(a[i, t], b[t, j])
            row.append(acc)
        rows.append(row)
    return FormMatrix(table, rows)


@given(seeds, inexact, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_matmul_matches_the_triple_loop(seed, floats, n, k, m):
    rng = random.Random(seed)
    table = random_table(rng)
    a = _matrix(table, rng, n, k, floats)
    b = _matrix(table, rng, k, m, floats)
    assert a @ b == naive_matmul(a, b)
    for x, y in zip(a.rows[0], b.transpose().rows[0]):
        assert x * y == naive_mul(x, y)


@given(seeds, inexact, st.integers(1, 3))
def test_power_sum_matches_scaled_sums(seed, floats, n):
    rng = random.Random(seed)
    table = random_table(rng)
    mat = _matrix(table, rng, n, n, floats)
    # drop the constant terms so the powers end by nilpotency
    mat = mat.map_entries(lambda e: e - e.constant_term())
    powers = mat_powers(mat)
    coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4])) for _ in powers]
    expected = FormMatrix.zero(table, n)
    for power, c in zip(powers, coeffs):
        expected = expected + power.scale(c)
    assert power_sum(powers, coeffs) == expected


@given(seeds, inexact, st.integers(1, 4))
def test_mat_powers_match_multiplying_until_zero(seed, floats, n):
    # random_form mixes degrees and puts sigma in about 40% of the terms
    rng = random.Random(seed)
    table = random_table(rng)
    mat = _matrix(table, rng, n, n, floats)
    mat = mat.map_entries(lambda e: e - e.constant_term())
    naive = [FormMatrix.identity(table, n)]
    while not naive_matmul(naive[-1], mat).is_zero():
        naive.append(naive_matmul(naive[-1], mat))
    assert mat_powers(mat) == naive


@given(seeds, inexact)
def test_d_is_a_derivation_and_d_T_is_d_minus_iota(seed, floats):
    rng = random.Random(seed)
    table = random_table(rng)
    x = random_homogeneous_form(table, rng)
    y = _form(table, rng, floats)
    if floats:
        x = _float_form(x, rng)
    sign = -1 if not x.is_zero() and x.degree() & 1 else 1
    assert (x * y).d() == x.d() * y + (x * y.d()).scale(sign)
    assert y.d_T() == y.d() - y.iota()
    for mono in y.terms:
        m = FormElement(table, {mono: 1})
        assert dict(table.mono_d_T(mono)) == (m.d() - m.iota()).terms


def test_d_of_a_generator_is_its_differential():
    rng = random.Random(5)
    for _ in range(30):
        table = random_table(rng)
        for gid, name in enumerate(table.names):
            assert table.gen(name).d() == table.differential(gid)


def test_memos_follow_the_table():
    table = GeneratorTable(4)
    x = table.add_generator("x", 1)
    u = table.add_generator("u", 2)
    y = table.add_generator("y", 1)
    xy = x * y
    assert x.d().is_zero() and xy.d().is_zero()
    assert table.mono_d_T((0,) + next(iter(xy.terms))) == ((next(iter(xy.terms)), -1),)
    table.set_differential("x", "u")
    assert x.d() == u
    assert xy.d() == u * y
    assert (table.sigma() * x).d_T() == -(table.sigma() * u) - x
    table.set_differential("x", "2 u")
    assert x.d() == u.scale(2)
    v = table.add_generator("v", 2)
    table.set_differential("y", "v")
    assert y.d() == v
    assert xy.d() == (u * y).scale(2) - x * v
    assert (x * v) * y == xy * v
    assert (u * v).d().is_zero()



def test_degree_memo_survives_table_changes_and_stays_bounded():
    table = GeneratorTable(6)
    for name, degree in (("x", 1), ("u", 2), ("y", 3)):
        table.add_generator(name, degree)
    s, x, u, y = range(4)
    queried = set()

    def check(monos):
        for mono in monos:
            assert table.mono_degree(mono) == sum(table.degree_of(g) for g in mono)
            queried.add(mono)
        assert len(table._degree_memo) <= len(queried)

    before = [(), (x,), (u, u), (s, x, u), (x, y), (s, u, u, u), (x,)]
    check(before)
    table.add_generator("v", 2)
    v = table.names.index("v")
    table.set_differential("x", table.gen("u"))
    table.set_differential("v", table.gen("y"))
    assert set(before) <= table._degree_memo.keys()   # kept, not cleared
    check(before + [(v,), (s, v), (x, u, v), (u, v, v)])
