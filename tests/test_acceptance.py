"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances and budgets are pinned here, not configurable.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from chernloc.barcomplex import BarChain, b, b0, b1, beta, cochain_mul
from chernloc.clifford import (CliffordElement, berezin_str, exterior_table,
                               quantize, symbol)
from chernloc.formmatrix import FormMatrix
from chernloc.fredholm import (connection_cochain, curvature_cochain,
                               curvature_word_matrix, mckean_singer_check,
                               random_idempotent, random_model)
from chernloc.localize import limit_theorem_check
from chernloc.mehler import (KAPPA_COEFF, CurvatureMatrix, heat_element,
                             heat_equation_residual, solve_kappa_constant,
                             twisted_convolve)
from chernloc.multiform import GeneratorTable, check_dga
from chernloc.sampling import random_chain, random_form, random_table
from chernloc.scalars import QC, two_over_i_pow
from chernloc.torus import TorusModel, chern_t_torus, chern_target, \
    supertrace_constancy

from conftest import random_antisymmetric_curvature, random_rule_cochain


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}  criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_bar_complex_laws():
    start = time.time()
    rng = random.Random(2024)
    tables = [random_table(rng) for _ in range(22)]
    assert all(check_dga(t).ok for t in tables)
    count = 0
    ok = True
    while count < 1000:
        table = tables[count % len(tables)]
        chain = random_chain(table, rng)
        if not b0(b0(chain)).is_zero():
            ok = False
            break
        if not b1(b1(chain)).is_zero():
            ok = False
            break
        if not (b0(b1(chain)) + b1(b0(chain))).is_zero():
            ok = False
            break
        if not b(b(chain)).is_zero():
            ok = False
            break
        count += 1
    elapsed = time.time() - start
    _report(1, "bar-complex laws exact on randomized chains",
            ok and elapsed < 60.0,
            f"{count} chains over {len(tables)} tables in {elapsed:.1f}s")


def test_criterion_2_cochain_algebra():
    rng = random.Random(7)
    derivation_ok = True
    for _ in range(40):
        table = random_table(rng)
        p1, p2 = rng.randint(0, 1), rng.randint(0, 1)
        l1 = random_rule_cochain(table, rng, parity=p1)
        l2 = random_rule_cochain(table, rng, parity=p2)
        lhs = beta(cochain_mul(l1, l2))
        first = cochain_mul(beta(l1), l2)
        second = cochain_mul(l1, beta(l2))
        sign = QC(-1) if p1 else QC(1)
        for _ in range(6):
            word = tuple(random_form(table, rng) for _ in range(rng.randint(0, 3)))
            chain = BarChain.from_word(table, word)
            want = first.eval_chain(chain) + sign * second.eval_chain(chain)
            if lhs.eval_chain(chain) != want:
                derivation_ok = False

    table = GeneratorTable(4)
    table.add_generator("x", 1)
    table.add_generator("y", 1)
    table.add_generator("u", 2)
    table.set_differential("x", "u")
    model = random_model(table, rng, 2, 2)
    omega = connection_cochain(model)
    F = curvature_cochain(model)
    lhs = beta(F)
    r1, r2 = cochain_mul(F, omega), cochain_mul(omega, F)
    bianchi = 0.0
    for _ in range(40):
        word = tuple(random_form(table, rng) for _ in range(rng.randint(0, 3)))
        chain = BarChain.from_word(table, word)
        delta = lhs.eval_chain(chain) - (r1.eval_chain(chain) - r2.eval_chain(chain))
        bianchi = max(bianchi, float(np.max(np.abs(delta))))
    _report(2, "codifferential is a derivation; Bianchi identity",
            derivation_ok and bianchi < 1e-12,
            f"max Bianchi residual {bianchi:.2e}")


def test_criterion_3_clifford_symbol_identities():
    ok = True
    for d in (2, 4):
        table = exterior_table(d)
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(1, d + 1), r) for r in range(d + 1)))
        forms = {}
        for sub in subsets:
            f = table.one()
            for i in sub:
                f = f * table.gen(f"e{i}")
            forms[sub] = f
        for sa in subsets:
            for sb in subsets:
                a, bb = quantize(forms[sa]), quantize(forms[sb])
                if symbol(a * bb, k=len(sa) + len(sb)) != forms[sa] * forms[sb]:
                    ok = False
                sign = (-1) ** (len(sa) * len(sb))
                comm = a * bb - (bb * a).scale(sign)
                if berezin_str(comm) != QC(0):
                    ok = False
            if len(sa) < d and berezin_str(CliffordElement.from_subset(d, sa)) != QC(0):
                ok = False
        top = CliffordElement.from_subset(d, tuple(range(1, d + 1)))
        if berezin_str(top) != two_over_i_pow(d):
            ok = False
    _report(3, "Clifford top-symbol multiplicativity and supertrace, d in {2,4}", ok)


def _curvatures():
    t2 = GeneratorTable(2)
    t2.add_generator("w", 2)
    w = t2.gen("w")
    R2 = CurvatureMatrix(t2, 2, FormMatrix(t2, [[t2.zero(), w], [-w, t2.zero()]]))
    t4 = GeneratorTable(4)
    t4.add_generator("u", 2)
    t4.add_generator("v", 2)
    u, v = t4.gen("u"), t4.gen("v")
    z = t4.zero()
    R4 = CurvatureMatrix(t4, 4, FormMatrix(t4, [
        [z, u, z, v], [-u, z, v, z], [z, -v, z, u], [-v, z, -u, z]]))
    return R2, R4


def test_criterion_4_mehler_semigroup():
    start = time.time()
    derived = solve_kappa_constant()
    ok = derived == KAPPA_COEFF == Fraction(-1, 2)
    taus = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    for R in _curvatures():
        for ta in taus:
            for tb in taus:
                lhs = twisted_convolve(heat_element(ta, R),
                                       heat_element(tb, R), R,
                                       kappa_coeff=derived)
                if lhs != heat_element(ta + tb, R):
                    ok = False
    elapsed = time.time() - start
    _report(4, "twisted-convolution semigroup exact, d in {2,4}",
            ok and elapsed < 60.0,
            f"kappa = {derived}, {elapsed:.1f}s")


def test_criterion_5_heat_equation():
    _, R4 = _curvatures()
    residual = heat_equation_residual(R4)
    _report(5, "oscillator heat equation holds symbolically at d = 4",
            residual.is_zero())


def test_criterion_6_localization():
    start = time.time()
    rng = random.Random(4096)
    ok = True
    cases = 0
    nontrivial = 0
    for d in (2, 4):
        for n_word in (0, 1, 2, 3):
            for _ in range(2):
                table = GeneratorTable(d)
                table.add_generator("u", 2)
                if d == 4:
                    table.add_generator("v", 2)
                R = random_antisymmetric_curvature(table, d, rng)
                word = []
                for _ in range(n_word):
                    f = random_form(table, rng, n_terms=2)
                    word.append(f if not f.is_zero() else table.one())
                rep = limit_theorem_check(d, R, tuple(word))
                cases += 1
                if not (rep.exact_equal or rep.residual < 1e-12):
                    ok = False
                if not rep.vanishing_patterns_zero:
                    ok = False
                if not rep.rhs.is_zero():
                    nontrivial += 1
    elapsed = time.time() - start
    _report(6, "localization limit matches the characteristic form",
            ok and cases >= 10 and nontrivial >= 3 and elapsed < 120.0,
            f"{cases} cases ({nontrivial} nontrivial) in {elapsed:.1f}s")


def test_criterion_7_mckean_singer():
    start = time.time()
    rng = random.Random(99)
    table = GeneratorTable(6)
    table.add_generator("y", 3)
    table.add_generator("w", 2)
    table.set_differential("w", "y")
    table.add_generator("z", 3)
    table.add_generator("v", 2)
    table.set_differential("v", "z")
    configs = [
        (2, 2, 2, 1.0),
        (2, 2, 2, 0.9),
        (3, 3, 2, 1.0),
        (4, 4, 2, 1.0),
        (2, 2, 3, 1.0),
    ]
    ok = True
    worst = 0.0
    for dim_plus, dim_minus, n, t in configs:
        model = random_model(table, rng, dim_plus, dim_minus,
                             scale=0.3, q_scale=0.7)
        p = random_idempotent(table, rng, n=n, scale=Fraction(1, 4))
        if curvature_word_matrix(p).is_zero():
            ok = False
        rep = mckean_singer_check(model, p, t=t)
        worst = max(worst, rep.difference)
        if rep.difference >= 1e-8:
            ok = False
    elapsed = time.time() - start
    _report(7, "idempotent character equals the twisted heat supertrace",
            ok and elapsed < 120.0,
            f"5 models, worst |lhs-rhs| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_torus_convergence():
    start = time.time()
    model = TorusModel(L1=2 * math.pi, L2=2 * math.pi, K=64, spin="pp")
    beta_coeff = 0.7
    theta = {(0, 0): beta_coeff}
    target = chern_target(model, theta)
    assert abs(target - beta_coeff * 4 * math.pi ** 2 / (2j * math.pi)) < 1e-14
    value = chern_t_torus(model, 0.05, theta)
    rel = abs(value - target) / abs(target)
    max_abs, max_slope = supertrace_constancy(model)
    elapsed = time.time() - start
    _report(8, "flat-torus character converges to the normalized integral",
            rel < 1e-4 and max_abs < 1e-10 and max_slope < 1e-10
            and elapsed < 60.0,
            f"relative error {rel:.2e} at t = 0.05, K = 64, {elapsed:.1f}s")
