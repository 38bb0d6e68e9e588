"""Property tests of the chain operations against per-word references.

The references below rebuild ``b0``, ``b1`` and ``cyclic_symmetrize`` one
output word at a time: each term is a one-word chain made with the public
``BarChain`` constructor, ``d_T`` and products come from ``FormElement``
arithmetic (not from the table's memos), and the terms are summed with
``BarChain.__add__``.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from chernloc import fredholm
from chernloc.barcomplex import BarChain, b, b0, b1, cyclic_symmetrize
from chernloc.fredholm import bismut_chern, bismut_words, random_idempotent
from chernloc.multiform import FormElement
from chernloc.sampling import random_chain, random_table
from chernloc.scalars import QC, iszero

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
