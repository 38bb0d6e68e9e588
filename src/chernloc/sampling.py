"""Randomized generator tables, forms and chains for the invariant suites.

Differentials are drawn from the subalgebra generated by closed generators,
which makes d^2 = 0 automatic, so every sampled table passes ``check_dga``.
Coefficients are small exact rationals to keep all identity checks exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .multiform import GeneratorTable
from .scalars import QC

_NAMES = "abcdefghjklmnpqrstuvwxyz"


def random_coeff(rng, imaginary=True):
    num = rng.randint(-3, 3)
    den = rng.choice([1, 1, 2, 3])
    re = Fraction(num, den)
    im = Fraction(rng.randint(-2, 2), 1) if imaginary and rng.random() < 0.4 else 0
    c = QC(re, im)
    return c if c else QC(1)


def random_table(rng):
    top = rng.choice([2, 4, 4, 6])
    n_gens = rng.randint(2, 4)
    table = GeneratorTable(top)
    gens = []
    for i in range(n_gens):
        deg = rng.randint(1, min(3, top))
        gens.append((_NAMES[i], deg))
        table.add_generator(_NAMES[i], deg)
    # closed generators first; the rest differentiate into the closed span
    n_closed = max(1, rng.randint(n_gens // 2, n_gens))
    closed = gens[:n_closed]
    for name, deg in gens[n_closed:]:
        target = deg + 1
        candidates = _monomials_of_degree(table, closed, target)
        if not candidates:
            continue
        expr = table.zero()
        for mono in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 2))):
            expr += mono.scale(random_coeff(rng, imaginary=False))
        if not expr.is_zero():
            table.set_differential(name, expr)
    return table


def _monomials_of_degree(table, gens, degree):
    out = []
    names = [n for n, _ in gens]
    for r in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(names, r):
            form = table.one()
            for nm in combo:
                form = form * table.gen(nm)
            if form.is_zero():
                continue
            try:
                if form.degree() == degree:
                    out.append(form)
            except ValueError:
                continue
    return out


def random_form(table, rng, n_terms=3, allow_sigma=True):
    names = [n for n in table.names if n != "sigma"]
    out = table.zero()
    for _ in range(n_terms):
        term = table.one().scale(random_coeff(rng))
        length = rng.randint(0, 3)
        for _ in range(length):
            term = term * table.gen(rng.choice(names))
            if term.is_zero():
                break
        if term.is_zero():
            continue
        if allow_sigma and rng.random() < 0.4:
            term = table.sigma() * term
        deg = max((table.mono_nonsigma_degree(m) for m in term.terms), default=0)
        if deg > table.top_degree:
            continue
        out += term
    return out


def random_homogeneous_form(table, rng):
    form = random_form(table, rng)
    parts = form.homogeneous_parts()
    if not parts:
        return table.one()
    return parts[rng.choice(list(parts))]


def random_word(table, rng, max_len=3):
    n = rng.randint(0, max_len)
    word = []
    for _ in range(n):
        f = random_form(table, rng, n_terms=2)
        if f.is_zero():
            f = table.one()
        word.append(f)
    return tuple(word)


def random_chain(table, rng, max_words=3, max_len=3):
    from .barcomplex import BarChain
    words = []
    for _ in range(rng.randint(1, max_words)):
        words.append((random_coeff(rng), random_word(table, rng, max_len=max_len)))
    return BarChain.from_words(table, words)
