import os

# Pin the BLAS pools before anything imports numpy, as perfbench/run.py does:
# the models' matrices are 4 x 4 to 32 x 32, where threads only add overhead.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import random  # noqa: E402
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from chernloc.formmatrix import FormMatrix
from chernloc.mehler import CurvatureMatrix
from chernloc.multiform import GeneratorTable

# One profile for every property test: the same examples on every run (no
# example database, no per-example deadline on a shared host) and few of
# them, so the suite stays deterministic and quick.  The explain phase is
# left out: it only annotates a failure, and on a failing Laurent-ring test
# it ran for minutes where the shrunk failure is reported in seconds.
settings.register_profile("tier1", deadline=None, derandomize=True,
                          database=None, max_examples=20,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def curvature_d2():
    table = GeneratorTable(2)
    table.add_generator("w", 2)
    w = table.gen("w")
    R = CurvatureMatrix(table, 2, FormMatrix(table, [[table.zero(), w],
                                                     [-w, table.zero()]]))
    return table, R


@pytest.fixture(scope="session")
def curvature_d4():
    table = GeneratorTable(4)
    table.add_generator("u", 2)
    table.add_generator("v", 2)
    u, v = table.gen("u"), table.gen("v")
    z = table.zero()
    R = CurvatureMatrix(table, 4, FormMatrix(table, [
        [z, u, z, v],
        [-u, z, v, z],
        [z, -v, z, u],
        [-v, z, -u, z],
    ]))
    return table, R


@pytest.fixture(scope="session")
def model_table():
    """A table whose even generators are not closed, so idempotent words
    carry nonzero curvature and a nonzero sigma part of (dp)^2."""
    table = GeneratorTable(6)
    table.add_generator("y", 3)
    table.add_generator("w", 2)
    table.set_differential("w", "y")
    table.add_generator("z", 3)
    table.add_generator("v", 2)
    table.set_differential("v", "z")
    return table


def make_rng(seed):
    return random.Random(seed)


def inexact_chain(chain, rng, share=1.0):
    """``chain`` with each coefficient, with probability ``share``, made a
    complex float times a random float factor (the rest stay exact)."""
    from chernloc.barcomplex import BarChain
    return BarChain(chain.table, {
        word: complex(c) * rng.choice([0.1, 0.3, 1.7, -2.5]) if rng.random() < share else c
        for word, c in chain.terms.items()})


def random_rule_cochain(table, rng, parity, max_arity=2):
    """Finitely supported scalar cochain with exact rational values whose
    rules respect the declared (shifted) parity."""
    from chernloc.barcomplex import Cochain
    from chernloc.sampling import random_homogeneous_form
    from chernloc.scalars import QC
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
            word.append(rng.choice(list(f.terms)))
        if not ok:
            continue
        word = tuple(word)
        n_par = (sum(table.mono_degree(m) for m in word) - len(word)) & 1
        if n_par != parity:
            continue
        rules[word] = QC(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
    return Cochain.from_rules(table, rules, parity)


def random_antisymmetric_curvature(table, d, rng, density=0.7):
    gens = [g for g in range(1, len(table.names)) if table.degree_of(g) == 2]
    z = table.zero()
    rows = [[z] * d for _ in range(d)]
    from chernloc.multiform import FormElement
    from chernloc.scalars import QC
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density and gens:
                g = rng.choice(gens)
                c = QC(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                if c:
                    e = FormElement(table, {(g,): c})
                    rows[i][j] = rows[i][j] + e
                    rows[j][i] = rows[j][i] - e
    return CurvatureMatrix(table, d, FormMatrix(table, rows))
