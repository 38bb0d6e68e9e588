"""Property tests of the chain operations against per-word references.

The references below rebuild ``b0``, ``b1`` and ``cyclic_symmetrize`` one
output word at a time: each term is a one-word chain made with the public
``BarChain`` constructor, ``d_T`` and products come from ``FormElement``
arithmetic (not from the table's memos), and the terms are summed with
``BarChain.__add__``.

The oracle ``two_pass_b0``/``two_pass_b1`` is the library's earlier form of
the two differentials: one function each, every word's shifted degrees
read through ``_prefix_degrees`` and every d_T coefficient multiplied.  It
reads the same memos and adds the same terms in the same order as the one
walk per word of ``barcomplex._boundary``, so it pins that walk's values
exactly, float coefficients included.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from chernloc import fredholm
from chernloc.barcomplex import (BarChain, _prefix_degrees, b, b0, b1,
                                 cyclic_symmetrize)
from chernloc.fredholm import bismut_chern, bismut_words, random_idempotent
from chernloc.multiform import FormElement
from chernloc.sampling import random_chain, random_table
from chernloc.scalars import QC, _add_term, iszero
from conftest import inexact_chain

rngs = st.randoms(use_true_random=False)


def _mono(table, mono):
    return FormElement(table, {mono: QC(1)})


def _shifted(table, monos):
    return sum(table.mono_degree(m) - 1 for m in monos)


def ref_b0(chain):
    table = chain.table
    out = BarChain.zero(table)
    for word, coeff in chain:
        for k, mono in enumerate(word):
            sign = -1 if _shifted(table, word[:k]) & 1 else 1
            for m2, c in _mono(table, mono).d_T():
                out = out + BarChain(table, {word[:k] + (m2,) + word[k + 1:]: sign * c * coeff})
    return out


def ref_b1(chain):
    table = chain.table
    out = BarChain.zero(table)
    for word, coeff in chain:
        for k in range(len(word) - 1):
            sign = 1 if _shifted(table, word[:k + 1]) & 1 else -1
            prod = _mono(table, word[k]) * _mono(table, word[k + 1])
            for m2, c in prod:
                out = out + BarChain(table, {word[:k] + (m2,) + word[k + 2:]: sign * c * coeff})
    return out


def ref_cyclic(chain):
    table = chain.table
    out = BarChain.zero(table)
    for word, coeff in chain:
        total = _shifted(table, word)
        for k in range(max(len(word), 1)):
            nk = _shifted(table, word[:k])
            sign = -1 if (nk * (total - nk)) & 1 else 1
            out = out + BarChain(table, {word[k:] + word[:k]: sign * coeff})
    return out


def two_pass_b0(chain):
    table = chain.table
    out = {}
    for word, coeff in chain.terms.items():
        degs = _prefix_degrees(table, word)
        for k, mono in enumerate(word):
            dtheta = table.mono_d_T(mono)
            if not dtheta:
                continue
            sign_coeff = -coeff if degs[k] & 1 else coeff
            head, tail = word[:k], word[k + 1:]
            for m2, mc in dtheta:
                _add_term(out, head + (m2,) + tail, sign_coeff * mc)
    return BarChain._wrap(table, out)


def two_pass_b1(chain):
    table = chain.table
    out = {}
    for word, coeff in chain.terms.items():
        degs = _prefix_degrees(table, word)
        neg = -coeff
        for k in range(len(word) - 1):
            mono, sign = table.mono_product(word[k], word[k + 1])
            if mono is None:
                continue
            c = coeff if (degs[k + 1] & 1) == (sign > 0) else neg
            _add_term(out, word[:k] + (mono,) + word[k + 2:], c)
    return BarChain._wrap(table, out)


def _table_and_chain(rng):
    table = random_table(rng)
    return table, random_chain(table, rng, max_words=4, max_len=4)


def _zero_free(chain):
    return not any(iszero(c) for c in chain.terms.values())


@given(rngs)
def test_chain_operations_match_per_word_reference(rng):
    _, chain = _table_and_chain(rng)
    for op, ref in ((b0, ref_b0), (b1, ref_b1), (cyclic_symmetrize, ref_cyclic)):
        got = op(chain)
        assert got == ref(chain)
        assert _zero_free(got)
    assert _zero_free(chain)
    assert _zero_free(chain + chain.scale(-1)) and (chain - chain).is_zero()


def _float_differentials(table):
    """Scale every assigned differential by a float, keeping d^2 = 0."""
    for gid in range(1, len(table.names)):
        dg = table.differential(gid)
        if not dg.is_zero():
            table.set_differential(table.names[gid], dg.scale(0.3))


def _typed(chain):
    return {word: (type(c), c) for word, c in chain.terms.items()}


def _close(x, y, rel=1e-12):
    """Equal up to rounding, relative to the largest coefficient of either."""
    scale = max((abs(complex(c)) for c in (*x.terms.values(), *y.terms.values())),
                default=0.0)
    return all(abs(complex(c)) <= rel * scale for c in (x - y).terms.values())


@given(rngs, st.sampled_from(["exact", "float", "mixed"]))
def test_one_walk_matches_the_two_pass_oracle(rng, kind):
    table, chain = _table_and_chain(rng)
    if kind == "float":
        _float_differentials(table)
        chain = inexact_chain(chain, rng)
    elif kind == "mixed":
        chain = inexact_chain(chain, rng, share=0.5)
    d0, d1, whole = b0(chain), b1(chain), b(chain)
    # the same values of the same types (1.0 == QC(1) holds, so both count)
    assert _typed(d0) == _typed(two_pass_b0(chain))
    assert _typed(d1) == _typed(two_pass_b1(chain))
    assert all(map(_zero_free, (d0, d1, whole)))
    if kind == "exact":
        assert whole == two_pass_b0(chain) + two_pass_b1(chain)
        assert whole == d0 + d1
    else:
        # b adds the d_T and the product terms of each word into one dict,
        # so a float sum may round apart from the sum of b0 and b1
        assert _close(whole, d0 + d1)


@given(rngs)
def test_b_squared_vanishes(rng):
    _, chain = _table_and_chain(rng)
    assert b(b(chain)).is_zero()


@given(rngs, st.integers(0, 2))
def test_bismut_chern_is_the_sum_of_its_trace_expansions(model_table, rng, n_max):
    # non-closed even generators, so the curvature words do not vanish
    table = model_table
    p = random_idempotent(table, rng, n=2, scale=Fraction(1, 4))
    want = BarChain.zero(table)
    for coeff, word in bismut_words(p, n_max):
        want = want + BarChain.from_words(table, fredholm._trace_words(word, coeff))
    got = bismut_chern(p, n_max)
    assert got == want
    assert _zero_free(got)


@given(rngs)
def test_memos_follow_table_changes(rng):
    table, chain = _table_and_chain(rng)
    b0(chain)
    b1(chain)   # warm both memos
    used = sorted({g for word in chain.terms for mono in word for g in mono if g})
    if not used:
        return
    gid = rng.choice(used)
    name = table.names[gid]
    # a fresh closed generator one degree up becomes d of a used one
    new = table.add_generator("fresh", table.degree_of(gid) + 1)
    assert b0(chain) == ref_b0(chain)
    table.set_differential(name, new.scale(rng.choice([1, -2, Fraction(1, 3)])))
    assert b0(chain) == ref_b0(chain)
    assert b1(chain) == ref_b1(chain)
    table.set_differential(name, table.zero())
    assert b0(chain) == ref_b0(chain)


def test_set_differential_changes_a_warm_b0():
    from chernloc.multiform import GeneratorTable
    table = GeneratorTable(4)
    table.add_generator("x", 1)
    table.add_generator("u", 2)
    chain = BarChain.from_word(table, (table.gen("x"), table.gen("x")))
    before = b0(chain)
    table.set_differential("x", "u")
    after = b0(chain)
    assert after != before
    assert after == ref_b0(chain)
