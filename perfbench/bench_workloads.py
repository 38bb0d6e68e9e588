"""Seeded inputs and checked operations for the benchmark workloads.

A workload is a *unit* of operations built from one seed.  Building it (the
set-up) generates every input; running an operation only calls the library
and checks the identity it verifies, at the tolerance the acceptance suite
pins.  Operations call the library through its module attributes at call
time, so the tracer in ``bench_trace`` sees every call it wraps.

The runner times the unit several times over.  ``Workload.unit()`` rebuilds
it from the seed for every pass, so each pass gets inputs equal in value to
the first pass's but held in new objects: a cache that an input object
carries (a model's curvature blocks, a fresh Gaussian table) starts cold in
every pass, while the exact-bar table pool, shared by design, stays warm.
The mix of op kinds and sizes in a unit, and the sequences of dimensions,
times and word lengths, are fixed, so the seed changes the values of the
inputs but not the cost mix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from chernloc import (barcomplex, clifford, formmatrix, fredholm, localize,
                      mehler, multiform, sampling, scalars, torus)

# Expected values, stated independently of the library where possible.
EXPECTED_KAPPA = Fraction(-1, 2)
MCKEAN_SINGER_TOL = 1e-8
TORUS_RELATIVE_TOL = 1e-4
TORUS_SUPERTRACE_TOL = 1e-10
LOCALIZE_RESIDUAL_TOL = 1e-12

# Every unit has 100 ops, so that ten of them lie beyond the 90th percentile.
UNIT_OPS = 100

# exact-bar: 89 light law and cochain ops, then 11 bismut ops (about 0.1 s),
# which hold ranks 89-99 by cost, so the 90th percentile falls inside them.
N_TABLES = 22
TABLE_SEED = 2024
SHAPE_SEED = 2025
LAW_CHAINS_PER_OP = 3
COCHAIN_PAIRS_PER_OP = 3
COCHAIN_WORDS_PER_PAIR = 3
BISMUT_N_MAX = 2
BISMUT_OPS = 11
COCHAIN_EVERY = 3          # every third light op is a cochain op

# gaussian-localize: per unit, one op of each Gaussian kind at each d, 12
# localize ops per d and the rest Clifford ops.  By cost the three d = 6
# Gaussian ops come last, then the eight d = 6 localize ops with words of
# length 0 and 1 (ranks 89-96), where the 90th percentile falls.
GAUSS_DIMS = (2, 4, 6)
GAUSS_KINDS = ("kappa", "semigroup", "heat-equation")
# the semigroup's time pair at each d; together they cover 1/4, 1/2, 1, 3/2
TAU_PAIRS = {2: (Fraction(1, 4), Fraction(3, 2)), 4: (Fraction(1, 2), Fraction(1)),
             6: (Fraction(1, 4), Fraction(1, 2))}
LOCALIZE_OPS_PER_D = 12
WORD_LENGTHS = (0, 1, 0, 1, 2, 3)
CLIFFORD_PAIRS_PER_OP = 24

# heat-supertrace: criterion 7's (dim_plus = dim_minus, n) configurations,
# each model swept over MS_TIMES by consecutive ops; torus ops over all four
# spin structures.  By cost: 44 K = 64 ops, 40 K = 256 ops (the median falls
# among these), then the 12 McKean-Singer ops (the 90th percentile) and the
# four K = 512 ops.  The models and idempotents come from a fixed seed, as
# the exact-bar tables do: with them the number of expm calls in a unit
# swings from 579 to 762, which would move the 90th percentile with the
# workload seed.  The workload seed draws the torus coefficients.
MODEL_SEED = 2024
MS_CONFIGS = ((2, 2), (3, 2), (4, 2), (2, 3))
MS_TIMES = (0.2, 0.35, 0.5)
MS_MODEL_SETS = 1
SPINS = ("pp", "pa", "ap", "aa")
TORUS_OPS = ((512, 4), (256, 40), (64, 44))
TORUS_T_GRID = (0.5, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class Check:
    ok: bool
    residual: float = 0.0
    detail: str = ""


PASS = Check(True)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Check]


@dataclass
class Unit:
    ops: list
    # Fredholm models whose curvature-block cache the tracer reads.
    models: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    make: Callable[[random.Random], Unit]

    def unit(self):
        """The unit's ops on fresh inputs drawn from the workload seed."""
        return self.make(random.Random(self.seed))


def build(name, seed):
    """The workload for ``seed``: shared inputs are made here, the rest by
    ``unit()``."""
    builders = {
        "exact-bar": _exact_bar,
        "heat-supertrace": _heat_supertrace,
        "gaussian-localize": _gaussian_localize,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(builders)}")
    return Workload(name, seed, builders[name]())


def interleave(*groups):
    """The ops of all groups in one list, each group spread evenly over it."""
    keyed = [((j + 0.5) / len(g), k, op) for k, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda e: e[:2])]


# -- shared inputs ----------------------------------------------------------------


def idempotent_table():
    """Degree-six table whose even generators are not closed, so idempotents
    over it have nonzero curvature (the acceptance suite's model table)."""
    table = multiform.GeneratorTable(6)
    table.add_generator("y", 3)
    table.add_generator("w", 2)
    table.set_differential("w", "y")
    table.add_generator("z", 3)
    table.add_generator("v", 2)
    table.set_differential("v", "z")
    return table


# Coefficients are random signs: coefficients of other sizes change the cost
# of the exact arithmetic from seed to seed by 10-20%.
_SIGNS = (Fraction(-1), Fraction(1))
_VALUES = (-3, -2, -1, 1, 2, 3)
# Generators in each entry of nu for the bismut-op idempotents: this fixed
# pattern gives a 220-word chain for every choice of coefficients.
_BISMUT_PATTERN = (((), ("w",)), (("w", "v"), ()))


def _full_pattern(n):
    return tuple(tuple(("w", "v") for _ in range(n)) for _ in range(n))


def patterned_idempotent(table, rng, pattern):
    """g p0 g^-1 with p0 = diag(1, 0, ...) and g = exp(nu), where entry (i, j)
    of nu is a sum of the generators pattern[i][j] with random signs
    coefficients.  A fixed pattern fixes the shape of the curvature, so
    the cost of an op varies little from seed to seed."""
    n = len(pattern)
    rows = []
    for pattern_row in pattern:
        row = []
        for gens in pattern_row:
            entry = table.zero()
            for g in gens:
                entry = entry + table.gen(g).scale(Fraction(1, 4) * rng.choice(_SIGNS))
            row.append(entry)
        rows.append(row)
    nu = formmatrix.FormMatrix(table, rows)
    p0 = formmatrix.FormMatrix.from_scalars(
        table, [[int(i == j == 0) for j in range(n)] for i in range(n)])
    return (formmatrix.mat_exp_nilpotent(nu) @ p0) @ formmatrix.mat_exp_nilpotent(-nu)


def _rule_cochain(table, shape_rng, rng, parity, max_arity=2):
    """Finitely supported scalar cochain of the declared shifted parity:
    its support drawn from ``shape_rng``, its exact nonzero values from
    ``rng``."""
    rules = {}
    for _ in range(shape_rng.randint(1, 4)):
        word = []
        for _ in range(shape_rng.randint(0, max_arity)):
            form = sampling.random_homogeneous_form(table, shape_rng)
            if form.is_zero():
                break
            word.append(shape_rng.choice(list(form.terms)))
        else:
            word = tuple(word)
            if (sum(table.mono_degree(m) for m in word) - len(word)) & 1 == parity:
                rules[word] = scalars.QC(Fraction(rng.choice(_VALUES), rng.choice([1, 2])))
    return barcomplex.Cochain.from_rules(table, rules, parity)


def _law_chain(table, shape_rng, rng):
    """A random chain: its words drawn from ``shape_rng``, their
    coefficients from ``rng``."""
    words = [(sampling.random_coeff(rng), sampling.random_word(table, shape_rng))
             for _ in range(shape_rng.randint(1, 3))]
    return barcomplex.BarChain.from_words(table, words)


def _curvature(d, rng):
    """Fresh table of degree-two generators and a curvature whose entry
    (i, j), i < j, is a random sign times generator (i + j) mod k.
    The fixed generator pattern keeps the cost of an op steady across seeds."""
    table = multiform.GeneratorTable(d)
    for name in ("u", "v")[:1 if d == 2 else 2]:
        table.add_generator(name, 2)
    gens = [table.gen(n) for n in table.names if n != "sigma"]
    zero = table.zero()
    rows = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            e = gens[(i + j) % len(gens)].scale(rng.choice(_SIGNS))
            rows[i][j] = e
            rows[j][i] = -e
    return table, mehler.CurvatureMatrix(table, d, formmatrix.FormMatrix(table, rows))


# -- exact-bar ------------------------------------------------------------------


def _law_op(items):
    """Criterion 1 plus ``check-bar``: b0^2 = b1^2 = b0 b1 + b1 b0 = b^2 = 0,
    d_T^2 = 0, and b of a cyclically symmetrized word is cyclic."""
    def run():
        bc = barcomplex
        for table, chain, form, word in items:
            if not bc.b0(bc.b0(chain)).is_zero():
                return Check(False, detail="b0^2 != 0")
            if not bc.b1(bc.b1(chain)).is_zero():
                return Check(False, detail="b1^2 != 0")
            if not (bc.b0(bc.b1(chain)) + bc.b1(bc.b0(chain))).is_zero():
                return Check(False, detail="b0 b1 + b1 b0 != 0")
            if not bc.b(bc.b(chain)).is_zero():
                return Check(False, detail="b^2 != 0")
            if not form.d_T().d_T().is_zero():
                return Check(False, detail="d_T^2 != 0")
            sym = bc.cyclic_symmetrize(bc.BarChain.from_word(table, word))
            if not bc.is_cyclic(bc.b(sym)):
                return Check(False, detail="b of a cyclic chain is not cyclic")
        return PASS
    return run


def _cochain_op(cases):
    """Scalar part of criterion 2: beta is a derivation of cochain_mul."""
    def run():
        bc = barcomplex
        for table, l1, l2, p1, words in cases:
            lhs = bc.beta(bc.cochain_mul(l1, l2))
            first = bc.cochain_mul(bc.beta(l1), l2)
            second = bc.cochain_mul(l1, bc.beta(l2))
            sign = scalars.QC(-1 if p1 else 1)
            for word in words:
                chain = bc.BarChain.from_word(table, word)
                if lhs.eval_chain(chain) != first.eval_chain(chain) + sign * second.eval_chain(chain):
                    return Check(False, detail="beta(l1 l2) != beta(l1) l2 +- l1 beta(l2)")
        return PASS
    return run


def _bismut_op(p):
    """The idempotent chain and its boundary are cyclic; every word is even."""
    def run():
        bc = barcomplex
        chain = fredholm.bismut_chern(p, BISMUT_N_MAX)
        if not bc.is_cyclic(chain):
            return Check(False, detail="bismut_chern chain is not cyclic")
        if not bc.is_cyclic(bc.b(chain)):
            return Check(False, detail="b(bismut_chern chain) is not cyclic")
        table = p.table
        if any((sum(table.mono_degree(m) for m in w) - len(w)) & 1 for w, _ in chain):
            return Check(False, detail="bismut_chern chain has an odd word")
        return PASS
    return run


def _exact_bar():
    # Criterion 1's table pool, the same for every seed.  The cost of a law
    # or cochain op depends on the tables and on the shapes of its words,
    # so those come from fixed seeds too; the workload seed draws the
    # coefficients and values, and the bismut-op idempotents.
    table_rng = random.Random(TABLE_SEED)
    tables = [sampling.random_table(table_rng) for _ in range(N_TABLES)]
    itable = idempotent_table()

    def make(rng):
        shape_rng = random.Random(SHAPE_SEED)
        cursor = itertools.cycle(range(N_TABLES))
        light = []
        for i in range(UNIT_OPS - BISMUT_OPS):
            if i % COCHAIN_EVERY == COCHAIN_EVERY - 1:
                cases = []
                for _ in range(COCHAIN_PAIRS_PER_OP):
                    table = tables[next(cursor)]
                    p1, p2 = shape_rng.randint(0, 1), shape_rng.randint(0, 1)
                    l1 = _rule_cochain(table, shape_rng, rng, p1)
                    l2 = _rule_cochain(table, shape_rng, rng, p2)
                    words = [tuple(sampling.random_form(table, shape_rng)
                                   for _ in range(shape_rng.randint(0, 3)))
                             for _ in range(COCHAIN_WORDS_PER_PAIR)]
                    cases.append((table, l1, l2, p1, words))
                light.append(Op("cochain", f"cochain x{COCHAIN_PAIRS_PER_OP}", _cochain_op(cases)))
            else:
                items = []
                for _ in range(LAW_CHAINS_PER_OP):
                    table = tables[next(cursor)]
                    items.append((table, _law_chain(table, shape_rng, rng),
                                  sampling.random_form(table, shape_rng),
                                  sampling.random_word(table, shape_rng)))
                light.append(Op("law", f"law x{LAW_CHAINS_PER_OP}", _law_op(items)))
        bismut = [Op("bismut", f"bismut_chern n_max {BISMUT_N_MAX}",
                     _bismut_op(patterned_idempotent(itable, rng, _BISMUT_PATTERN)))
                  for _ in range(BISMUT_OPS)]
        return Unit(interleave(light, bismut))

    return make


# -- gaussian-localize ------------------------------------------------------------------


def _kappa_op(R):
    """The kappa normalization derived from the two-point kernel."""
    def run():
        kappa = mehler.solve_kappa_constant(R=R)
        if kappa != EXPECTED_KAPPA:
            return Check(False, detail=f"kappa constant {kappa} != {EXPECTED_KAPPA}")
        return PASS
    return run


def _semigroup_op(R, ta, tb):
    """H_ta * H_tb = H_(ta+tb) exactly under twisted convolution."""
    def run():
        lhs = mehler.twisted_convolve(mehler.heat_element(ta, R),
                                      mehler.heat_element(tb, R), R)
        if lhs != mehler.heat_element(ta + tb, R):
            return Check(False, detail=f"H_{ta} * H_{tb} != H_{ta + tb}")
        return PASS
    return run


def _heat_equation_op(R):
    def run():
        if not mehler.heat_equation_residual(R).is_zero():
            return Check(False, detail="heat-equation residual is not zero")
        return PASS
    return run


def _localize_op(d, R, word):
    def run():
        rep = localize.limit_theorem_check(d, R, word)
        if not (rep.exact_equal or rep.residual < LOCALIZE_RESIDUAL_TOL):
            return Check(False, detail=f"limit differs from the A-hat side by {rep.residual:.3e}")
        if not rep.vanishing_patterns_zero:
            return Check(False, detail="a splitting with a two-slot block is nonzero")
        return PASS
    return run


def _clifford_op(d, pairs):
    """Top-symbol multiplicativity, supertrace of graded commutators and of
    lower blades, and the Berezin constant (2/i)^(d/2) of the top blade."""
    top_expected = scalars.QC(0, -2) ** (d // 2)

    def run():
        cl = clifford
        table = cl.exterior_table(d)

        def form(subset):
            out = table.one()
            for i in subset:
                out = out * table.gen(f"e{i}")
            return out

        for sa, sb in pairs:
            fa, fb = form(sa), form(sb)
            a, b = cl.quantize(fa), cl.quantize(fb)
            if cl.symbol(a * b, k=len(sa) + len(sb)) != fa * fb:
                return Check(False, detail=f"symbol(q({sa}) q({sb})) != e{sa} e{sb}")
            comm = a * b - (b * a).scale((-1) ** (len(sa) * len(sb)))
            if cl.berezin_str(comm) != 0:
                return Check(False, detail=f"Str[q({sa}), q({sb})] != 0")
            if len(sa) < d and cl.berezin_str(cl.CliffordElement.from_subset(d, sa)) != 0:
                return Check(False, detail=f"Str of lower blade {sa} != 0")
        top = cl.CliffordElement.from_subset(d, tuple(range(1, d + 1)))
        if cl.berezin_str(top) != top_expected:
            return Check(False, detail=f"Str of the top blade != {top_expected}")
        return PASS
    return run


def _localize_word(table, rng, length):
    """The generators with random signs in turn, the first one
    times sigma.  Whether a word holds sigma decides most of the cost of its
    check, so a fixed pattern keeps the cost steady across seeds."""
    gens = [table.gen(n) for n in table.names if n != "sigma"]
    word = [gens[j % len(gens)].scale(rng.choice(_SIGNS)) for j in range(length)]
    if word:
        word[0] = table.sigma() * word[0]
    return word


def _gaussian_localize():
    subsets = {d: list(itertools.chain.from_iterable(
        itertools.combinations(range(1, d + 1), r) for r in range(d + 1)))
        for d in GAUSS_DIMS}

    def make(rng):
        gauss, local, cliff = [], [], []
        for d in GAUSS_DIMS:
            for kind in GAUSS_KINDS:
                _, R = _curvature(d, rng)
                if kind == "kappa":
                    gauss.append(Op(kind, f"d {d}", _kappa_op(R)))
                elif kind == "semigroup":
                    ta, tb = TAU_PAIRS[d]
                    gauss.append(Op(kind, f"d {d} tau {ta}+{tb}", _semigroup_op(R, ta, tb)))
                else:
                    gauss.append(Op(kind, f"d {d}", _heat_equation_op(R)))
        for d in GAUSS_DIMS:
            for i in range(LOCALIZE_OPS_PER_D):
                table, R = _curvature(d, rng)
                word = _localize_word(table, rng, WORD_LENGTHS[i % len(WORD_LENGTHS)])
                local.append(Op("localize", f"d {d} word length {len(word)}",
                                _localize_op(d, R, tuple(word))))
        for i in range(UNIT_OPS - len(gauss) - len(local)):
            d = GAUSS_DIMS[i % len(GAUSS_DIMS)]
            pairs = [(rng.choice(subsets[d]), rng.choice(subsets[d]))
                     for _ in range(CLIFFORD_PAIRS_PER_OP)]
            cliff.append(Op("clifford", f"d {d}", _clifford_op(d, pairs)))
        return Unit(interleave(gauss, local, cliff))

    return make


# -- heat-supertrace ------------------------------------------------------------------


def _mckean_singer_op(model, p, t):
    """The idempotent character against Str(p exp(-D_p^2)) at time t."""
    def run():
        rep = fredholm.mckean_singer_check(model, p, t=t)
        residual = abs(rep.lhs - rep.rhs_heat_sq)
        if not residual < MCKEAN_SINGER_TOL:
            return Check(False, residual, f"|lhs - rhs_heat_sq| = {residual:.3e} at t = {t}")
        return Check(True, residual)
    return run


def _torus_op(model, theta):
    def run():
        rep = torus.convergence_report(model, theta, TORUS_T_GRID)
        row = min(rep.rows, key=lambda r: r.t)
        if not row.relative < TORUS_RELATIVE_TOL:
            return Check(False, detail=f"relative error {row.relative:.3e} at t = {row.t}")
        max_abs, max_slope = torus.supertrace_constancy(model)
        if not (max_abs < TORUS_SUPERTRACE_TOL and max_slope < TORUS_SUPERTRACE_TOL):
            return Check(False, detail=f"supertrace {max_abs:.3e}, slope {max_slope:.3e}")
        return PASS
    return run


def _heat_supertrace():
    table = idempotent_table()

    def make(rng):
        model_rng = random.Random(MODEL_SEED)
        unit = Unit([])
        mckean_singer = []
        for _ in range(MS_MODEL_SETS):
            for dim, n in MS_CONFIGS:
                model = fredholm.random_model(table, model_rng, dim, dim, scale=0.3, q_scale=0.7)
                p = patterned_idempotent(table, model_rng, _full_pattern(n))
                unit.models.append(model)
                for t in MS_TIMES:
                    mckean_singer.append(Op("mckean-singer", f"dim {dim}+{dim} n {n} t {t}",
                                            _mckean_singer_op(model, p, t)))
        groups = [mckean_singer]
        for K, count in TORUS_OPS:
            ops = []
            for i in range(count):
                spin = SPINS[i % len(SPINS)]
                model = torus.TorusModel(L1=2 * math.pi, L2=2 * math.pi, K=K, spin=spin)
                beta = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                ops.append(Op("torus", f"K {K} spin {spin}", _torus_op(model, {(0, 0): beta})))
            groups.append(ops)
        unit.ops = interleave(*groups)
        return unit

    return make
