import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from chernloc import fredholm
from chernloc.barcomplex import (BarChain, b, beta, cochain_mul,
                                 cyclic_symmetrize, is_cyclic)
from chernloc.formmatrix import FormMatrix
from chernloc.fredholm import (FredholmModel, bismut_chern, bismut_words,
                               chern_t, connection_cochain,
                               curvature_cochain, curvature_word_matrix,
                               mckean_singer_check, random_idempotent,
                               random_model, simplex_matrix_integral)
from chernloc.multiform import FormElement, GeneratorTable
from chernloc.sampling import random_form, random_word
from chernloc.scalars import QC, TableMismatchError
from oracles import simplex_str_quad


def base_table():
    t = GeneratorTable(4)
    t.add_generator("x", 1)
    t.add_generator("y", 1)
    t.add_generator("u", 2)
    t.set_differential("x", "u")
    return t


def rich_table():
    t = GeneratorTable(6)
    t.add_generator("y", 3)
    t.add_generator("w", 2)
    t.set_differential("w", "y")
    t.add_generator("z", 3)
    t.add_generator("v", 2)
    t.set_differential("v", "z")
    return t


# -- model structure --------------------------------------------------------------------


def test_model_rejects_even_q():
    t = base_table()
    Q = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        FredholmModel(t, 2, 2, Q, {})
    # a c matrix of the wrong shape is named by its monomial, not its ids
    odd_q = np.kron([[0, 1], [1, 0]], np.eye(2)).astype(complex)
    (xy,) = (t.gen("x") * t.gen("y")).terms
    with pytest.raises(ValueError, match=r"^bad model: c\(x y\) has the wrong shape$"):
        FredholmModel(t, 2, 2, odd_q, {xy: np.eye(3)})


@pytest.mark.parametrize("dims, message", [
    ((2.5, 2), "'dim_plus' must be an integer, got 2.5"),
    (("2", 2), "'dim_plus' must be an integer, got '2'"),
    ((True, 1), "'dim_plus' must be an integer, got True"),
    ((2, 2.0), "'dim_minus' must be an integer, got 2.0"),
    ((2, -1), "'dim_minus' must be non-negative, got -1"),
])
def test_model_rejects_a_dimension_that_is_not_a_count(dims, message):
    t = base_table()
    with pytest.raises(ValueError) as err:
        FredholmModel(t, *dims, np.zeros((4, 4), dtype=complex), {})
    assert str(err.value) == message


@pytest.mark.parametrize("c_map", [[], [((1,), np.eye(4))], None])
def test_model_rejects_a_c_that_is_not_a_mapping(c_map):
    t = base_table()
    with pytest.raises(ValueError, match="^'c' must map monomials to matrices"):
        FredholmModel(t, 2, 2, np.zeros((4, 4), dtype=complex), c_map)


def test_model_takes_a_small_odd_q_as_odd():
    # the parity test is the cochain one: a matrix below the 1e-12 floor
    # has either parity, so a small odd Q is not judged even
    t = base_table()
    Q = 1e-13 * np.kron([[0, 1], [1, 0]], np.eye(2)).astype(complex)
    assert FredholmModel(t, 2, 2, Q, {}).Q is not None
    with pytest.raises(ValueError, match="Q is not odd"):
        FredholmModel(t, 2, 2, Q + 1e-3 * np.eye(4), {})


def test_relation_report_on_unit():
    rng = random.Random(0)
    t = base_table()
    m = random_model(t, rng)
    rep = m.relation_report()
    assert rep["c(1) is identity"]
    assert rep["[Q, c(1)] = c(d1) = 0"]
    assert rep["c(1 * theta) = c(1) c(theta)"]


# -- curvature ---------------------------------------------------------------------------


def test_curvature_arity_zero_is_q_squared():
    rng = random.Random(1)
    t = base_table()
    m = random_model(t, rng)
    assert np.allclose(curvature_cochain(m).eval_word(()), m.Q @ m.Q)


def test_curvature_two_slots_vanish_on_constants():
    rng = random.Random(2)
    t = base_table()
    m = random_model(t, rng)
    f, g = t.scalar(QC(2)), t.scalar(QC(Fraction(1, 3)))
    assert np.allclose(curvature_cochain(m).eval_word((f, g)), 0)


def test_curvature_matches_cochain_algebra():
    # oracle: F = beta(omega) + omega * omega through the cochain operations
    rng = random.Random(3)
    t = base_table()
    m = random_model(t, rng)
    omega = connection_cochain(m)
    derived = beta(omega)
    square = cochain_mul(omega, omega)
    direct = curvature_cochain(m)
    for _ in range(60):
        word = random_word(t, rng, max_len=3)
        chain = BarChain.from_word(t, word)
        want = derived.eval_chain(chain) + square.eval_chain(chain)
        assert np.allclose(direct.eval_chain(chain), want, atol=1e-12)


def test_curvature_vanishes_above_two_slots():
    rng = random.Random(4)
    t = base_table()
    m = random_model(t, rng)
    F = curvature_cochain(m)
    word = tuple(t.gen("x") for _ in range(3))
    assert np.allclose(F.eval_chain(BarChain.from_word(t, word)), 0)


def f1_by_parts(model, t, slot):
    """Oracle for the one-slot block: sum over homogeneous parts of degree k
    of t^(k+1) (c(d theta') - [Q^, c(theta')]_k - c(theta''))."""
    Qh = q_hat(model, slot.shape[0])
    out = np.zeros_like(Qh)
    for deg, part in slot.homogeneous_parts().items():
        prime, second = part.split_sigma()
        c_prime = fredholm._cmat(model, prime)
        comm = Qh @ c_prime - (-1) ** deg * (c_prime @ Qh)
        out += t ** (deg + 1) * (fredholm._cmat(model, prime.d()) - comm
                                 - fredholm._cmat(model, second))
    return out


def f2_by_parts(model, t, slot1, slot2):
    """Oracle for the two-slot block: sum over pairs of homogeneous parts of
    t^(k1+k2) (-1)^(k1+1) (c(theta1') c(theta2') - c(theta1' theta2'))."""
    out = np.zeros_like(q_hat(model, slot1.shape[0]))
    for d1, part1 in slot1.homogeneous_parts().items():
        for d2, part2 in slot2.homogeneous_parts().items():
            p1, p2 = part1.split_sigma()[0], part2.split_sigma()[0]
            out += t ** (d1 + d2) * (-1) ** (d1 + 1) * (
                fredholm._cmat(model, p1) @ fredholm._cmat(model, p2)
                - fredholm._cmat(model, p1 @ p2))
    return out


def q_hat(model, n):
    """Q^ = 1 (x) Q on H tensor C^n."""
    return np.kron(np.eye(n, dtype=complex), model.Q)


def f1_block(model, t, slot):
    """The one-slot block of ``slot`` through its exact stage."""
    return fredholm._scaled_f1(model, t, fredholm._slot_forms(slot),
                               q_hat(model, slot.shape[0]))


def f2_block(model, t, slot1, slot2):
    """The two-slot block of ``(slot1, slot2)`` through its exact stage."""
    return fredholm._scaled_f2(model, t, fredholm._pair_forms(
        slot1.split_sigma()[0], slot2.split_sigma()[0]))


def _random_slot(table, rng, n):
    """An n x n matrix of mixed-degree forms with sigma parts and no
    constant term."""
    forms = [random_form(table, rng, n_terms=4) for _ in range(n * n)]
    forms = [f - table.scalar(f.constant_term()) for f in forms]
    return FormMatrix(table, [forms[i * n:(i + 1) * n] for i in range(n)])


def _assert_close(got, want, floor=0.0):
    """Agreement to 1e-13 relative to ``want``, or to ``floor`` if larger;
    returns whether ``want`` is nonzero."""
    assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), floor)
    return bool(np.any(want))


@pytest.mark.parametrize("t", [0.2, 0.7, 1.0])
def test_scaled_blocks_match_the_per_part_oracle(t):
    rng = random.Random(71)
    table = rich_table()
    nonzero = 0
    for dim_plus, dim_minus, n in ((2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3)):
        m = random_model(table, rng, dim_plus, dim_minus, scale=0.4, q_scale=0.8)
        p = random_idempotent(table, rng, n=n, scale=Fraction(1, 3))
        R = curvature_word_matrix(p)
        sigma_p = p.scale_form(table.sigma())
        mixed = [_random_slot(table, rng, n) for _ in range(3)]
        for slot in [R, sigma_p] + mixed:
            nonzero += _assert_close(f1_block(m, t, slot),
                                     f1_by_parts(m, t, slot))
        for slot1, slot2 in [(R, R), (R, mixed[0]), (mixed[1], R), (mixed[1], mixed[2])]:
            nonzero += _assert_close(f2_block(m, t, slot1, slot2),
                                     f2_by_parts(m, t, slot1, slot2))
        # a constant part cancels in the commutator and in c(1 theta) - c(1) c(theta),
        # in one pass only up to rounding, so these compare at the scale of c(1) = 1
        one = mixed[0] + FormMatrix.identity(table, n)
        _assert_close(f1_block(m, t, one), f1_by_parts(m, t, one), 1.0)
        for slot1, slot2 in [(one, mixed[1]), (mixed[2], one), (one, one)]:
            _assert_close(f2_block(m, t, slot1, slot2),
                          f2_by_parts(m, t, slot1, slot2), 1.0)
        # the two pieces mckean_singer_check reuses
        G = (p.scale(2) - FormMatrix.identity(table, n)) @ p.d()
        assert R.split_sigma()[0] == G
        assert np.array_equal(-f1_block(m, t, sigma_p),
                              fredholm._cmat(m, p, t))
    # not vacuous: a 1 x 1 idempotent is constant, so its R vanishes, but
    # most of the 36 blocks compared are nonzero (30 with this seed)
    assert nonzero >= 25


# -- simplex integrals ----------------------------------------------------------------------


def random_hermitian_psd(rs, n):
    Q = rs.randn(n, n) + 1j * rs.randn(n, n)
    return Q @ Q.conj().T


def test_engines_agree():
    rs = np.random.RandomState(7)
    A = random_hermitian_psd(rs, 5)
    w = np.diag([1, 1, 1, -1, -1]).astype(complex)
    for k in (0, 1, 2, 3):
        Bs = [rs.randn(5, 5) + 1j * rs.randn(5, 5) for _ in range(k)]
        ex = np.trace(w @ simplex_matrix_integral(A, Bs))
        qd = simplex_str_quad(A, Bs, w, order=24)
        assert abs(qd - ex) < 1e-9 * max(1.0, abs(ex))


def test_expm_on_confluent_spectrum_is_closed_form():
    # a fully degenerate generator: the integral collapses to e^-lambda / k!
    lam = 0.7
    A = lam * np.eye(3, dtype=complex)
    w = np.eye(3, dtype=complex)
    rs = np.random.RandomState(3)
    Bs = [rs.randn(3, 3) for _ in range(2)]
    got = np.trace(w @ simplex_matrix_integral(A, Bs))
    want = math.exp(-lam) / math.factorial(2) * np.trace(w @ Bs[0] @ Bs[1])
    assert abs(got - want) < 1e-12


def _splittings(n):
    """Compositions of n into parts of size one or two."""
    if n == 0:
        yield ()
        return
    for rest in _splittings(n - 1):
        yield (1,) + rest
    if n >= 2:
        for rest in _splittings(n - 2):
            yield (2,) + rest


def chern_by_splittings(model, t, target):
    """Oracle for chern_t: the sum over the splittings of each word into
    adjacent blocks of size one and two, each splitting's simplex integral
    by nested Gauss-Legendre quadrature."""
    table = model.table
    if isinstance(target, BarChain):
        return sum((complex(c) * chern_by_splittings(model, t, w)
                    for w, c in target.terms.items()), 0j)
    if target and isinstance(target[0], FormElement):
        return chern_by_splittings(model, t, BarChain.from_word(table, target))
    mats = target if target and isinstance(target[0], FormMatrix) \
        else fredholm._as_form_matrix_word(table, target)
    n = mats[0].shape[0] if mats else 1
    Qh = q_hat(model, n)
    Gh = np.kron(np.eye(n, dtype=complex), model.grading)
    A = (t ** 2) * (Qh @ Qh)
    total = 0j
    for comp in _splittings(len(mats)):
        blocks, pos = [], 0
        for part in comp:
            blocks.append(f1_block(model, t, mats[pos]) if part == 1
                          else f2_block(model, t, mats[pos], mats[pos + 1]))
            pos += part
        if all(np.any(B) for B in blocks):
            total += (-1) ** len(blocks) * simplex_str_quad(A, blocks, Gh)
    return total


def test_central_q_squared_closed_form():
    # Q^2 = lambda Id: the simplex integral reduces to e^(-t^2 lambda)/k!
    # times the supertrace of the curvature product; oracle is quadrature
    t = base_table()
    rng = random.Random(11)
    lam = 1.3
    Q = np.zeros((4, 4), dtype=complex)
    Q[:2, 2:] = math.sqrt(lam) * np.eye(2)
    Q[2:, :2] = math.sqrt(lam) * np.eye(2)
    m0 = random_model(t, rng, 2, 2)
    m = FredholmModel(t, 2, 2, Q, {k: v for k, v in m0.c_map.items() if k})
    assert np.allclose(m.Q @ m.Q, lam * np.eye(4))
    word = (t.gen("x"), t.gen("y"))
    tt = 0.8
    F = curvature_cochain(m)
    B1, B2 = F.eval_word((t.gen("x"),)), F.eval_word((t.gen("y"),))
    B12 = F.eval_word((t.gen("x"), t.gen("y")))
    closed = math.exp(-tt * tt * lam) * (
        (tt ** 4) / 2.0 * np.trace(m.grading @ B1 @ B2)
        - (tt ** 2) * np.trace(m.grading @ B12))
    got = chern_t(m, tt, word)
    assert abs(got - closed) < 1e-12
    quad = chern_by_splittings(m, tt, word)
    assert abs(got - quad) < 1e-9


def duhamel_expm(A, V, n_terms):
    """Truncated perturbation series for expm(-(A+V)) around A (oracle)."""
    out = np.zeros_like(np.asarray(A, dtype=complex))
    for j in range(n_terms + 1):
        out += (-1) ** j * simplex_matrix_integral(A, [V] * j)
    return out


def test_duhamel_series_converges_factorially():
    rs = np.random.RandomState(5)
    A = random_hermitian_psd(rs, 4)
    V = 0.6 * (rs.randn(4, 4) + 1j * rs.randn(4, 4))
    target = expm(-(A + V))
    errs = [np.linalg.norm(duhamel_expm(A, V, n) - target) for n in (2, 4, 6, 8)]
    assert errs[-1] < 1e-6
    for a, bb in zip(errs, errs[1:]):
        assert bb < a / 5


def test_transfer_matrix_equals_composition_sum():
    rng = random.Random(5)
    t = rich_table()
    m = random_model(t, rng, 2, 2, scale=0.35, q_scale=0.8)
    p = random_idempotent(t, rng, n=2, scale=Fraction(1, 4))
    for coeff, word in bismut_words(p, 2):
        va = chern_t(m, 1.0, word)
        vq = chern_by_splittings(m, 1.0, word)
        assert abs(va - vq) < 1e-11


def test_chern_takes_no_engine_keyword():
    # one engine: the splitting sum lives in the tests as the oracle
    rng = random.Random(6)
    t = base_table()
    m = random_model(t, rng)
    with pytest.raises(TypeError):
        chern_t(m, 1.0, (t.gen("x"),), engine="quad")


# -- the character ------------------------------------------------------------------------------


def test_chern_engines_agree_on_random_words():
    rng = random.Random(61)
    t = base_table()
    m = random_model(t, rng)
    compared = 0
    for _ in range(15):
        word = random_word(t, rng, max_len=3)
        chain = BarChain.from_word(t, word)
        if chain.is_zero():
            continue
        ex = chern_t(m, 0.7, chain)
        qd = chern_by_splittings(m, 0.7, chain)
        assert abs(ex - qd) < 1e-8 * max(1.0, abs(ex))
        compared += 1
    assert compared >= 8
    # random words rarely reach the supertrace through a two-slot block;
    # in each of these c(a) c(b) != c(ab) for an adjacent pair a, b does,
    # so a wrong sign on the F2 blocks changes the value
    for text in (["x", "y"], ["u", "u"], ["x y", "u"], ["sigma u", "x", "y"]):
        chain = BarChain.from_word(t, tuple(t.parse(w) for w in text))
        ex = chern_t(m, 0.7, chain)
        assert abs(ex) > 0.01, text
        assert abs(ex - chern_by_splittings(m, 0.7, chain)) < 1e-8 * abs(ex), text


def test_chern_on_a_word_of_forms_equals_its_monomial_expansion():
    # a word of forms is evaluated as it stands; its chain expands each
    # entry into monomial words, one block exponential per word
    rng = random.Random(5)
    t = rich_table()
    m = random_model(t, rng)
    largest = 0.0
    for _ in range(31):
        word = random_word(t, rng, max_len=3)
        expanded = chern_t(m, 1.0, BarChain.from_word(t, word))
        assert abs(chern_t(m, 1.0, word) - expanded) < 1e-12
        largest = max(largest, abs(expanded))
    assert largest > 0.1


def test_chern_rejects_nonpositive_t():
    rng = random.Random(6)
    t = base_table()
    m = random_model(t, rng)
    with pytest.raises(ValueError):
        chern_t(m, 0.0, ())


@pytest.mark.parametrize("bad", [0, -0.5, float("nan"), float("inf"), True, "0.5"])
def test_bad_times_are_rejected(bad):
    # t = 0 made the comparison vacuous (0 = 0), a negative t passed, and a
    # non-finite t gave NaN sides
    rng = random.Random(6)
    t = rich_table()
    m = random_model(t, rng)
    p = random_idempotent(t, rng, n=2)
    with pytest.raises(ValueError, match="^the scaling parameter must be positive$"):
        chern_t(m, bad, ())
    with pytest.raises(ValueError, match="^the scaling parameter must be positive$"):
        mckean_singer_check(m, p, t=bad)


def test_chern_on_empty_word_is_heat_supertrace():
    rng = random.Random(6)
    t = base_table()
    m = random_model(t, rng)
    for tt in (0.5, 1.0):
        got = chern_t(m, tt, ())
        want = complex(np.trace(m.grading @ expm(-(tt * tt) * (m.Q @ m.Q))))
        assert abs(got - want) < 1e-12


def test_chern_vanishes_without_assignments():
    t = base_table()
    rng = random.Random(8)
    m0 = random_model(t, rng)
    m = FredholmModel(t, 2, 2, m0.Q, {})   # only c(1) = id remains
    theta = t.sigma() * t.gen("u")
    # theta' = 0 and c(theta'') = 0, so every block vanishes
    word = (t.gen("x") * t.gen("y"),)
    assert chern_t(m, 1.0, word) == 0
    assert abs(chern_t(m, 1.0, (theta,))) == 0


def test_chern_kills_odd_words():
    rng = random.Random(9)
    t = base_table()
    m = random_model(t, rng)
    # a word of odd shifted parity has odd-parity values; the supertrace
    # of an odd matrix vanishes
    word = (t.parse("x y"),)     # n_1 = 2 - 1 odd
    assert abs(chern_t(m, 0.9, word)) < 1e-13


def test_coclosedness_on_cyclic_chains():
    # beta(Ch) = 0 restricted to cyclic chains: Ch(b(x)) = 0 whenever x is a
    # symmetrized word; exercises every sign convention at once
    rng = random.Random(10)
    t = base_table()
    m = random_model(t, rng)
    checked = 0
    for _ in range(20):
        word = random_word(t, rng, max_len=3)
        if not word:
            continue
        cyc = cyclic_symmetrize(BarChain.from_word(t, word))
        if cyc.is_zero():
            continue
        value = chern_t(m, 0.8, b(cyc))
        assert abs(value) < 1e-9
        checked += 1
    assert checked >= 10


def test_exponential_commutator_supertrace_vanishes_on_cyclic_words():
    # the mechanism behind coclosedness: Str([e^-F, omega]) kills cyclic
    # chains; built here by explicit small-arity expansion of e^-F
    rng = random.Random(77)
    t = base_table()
    m = random_model(t, rng)
    A = m.Q @ m.Q
    F = curvature_cochain(m)

    def exp_f0(word):
        return expm(-A)

    def exp_f1(word):
        return -simplex_matrix_integral(A, [F.eval_word(word)])

    def exp_f2(word):
        return simplex_matrix_integral(A, [F.eval_word(word[:1]), F.eval_word(word[1:])]) \
            - simplex_matrix_integral(A, [F.eval_word(word)])

    from chernloc.barcomplex import Cochain
    exp_f = Cochain(t, 0, {0: exp_f0, 1: exp_f1, 2: exp_f2}, dim=m.dim)
    omega = connection_cochain(m)
    left = cochain_mul(exp_f, omega)
    right = cochain_mul(omega, exp_f)

    checked = 0
    for _ in range(30):
        word = random_word(t, rng, max_len=2)
        if not word:
            continue
        cyc = cyclic_symmetrize(BarChain.from_word(t, word))
        if cyc.is_zero():
            continue
        value = np.trace(m.grading @ (left.eval_chain(cyc) - right.eval_chain(cyc)))
        assert abs(value) < 1e-10
        checked += 1
    assert checked >= 10


def test_chern_not_coclosed_off_cyclic():
    # the same evaluation on a generic non-cyclic chain is nonzero, so the
    # previous test is not vacuous
    rng = random.Random(104)
    t = base_table()
    m = random_model(t, rng)
    found = False
    for _ in range(40):
        word = random_word(t, rng, max_len=3)
        if not word:
            continue
        chain = BarChain.from_word(t, word)
        if abs(chern_t(m, 0.8, b(chain))) > 1e-6:
            found = True
            break
    assert found


# -- idempotent chains -----------------------------------------------------------------------------


def test_bismut_chern_constant_projection():
    t = base_table()
    p = FormMatrix.from_scalars(t, [[1, 0], [0, 0]])
    chain = bismut_chern(p, 6)
    assert chain == BarChain.from_word(t, (t.sigma(),))
    assert curvature_word_matrix(p).is_zero()


def test_bismut_chern_rank_one_trivial_bundle():
    t = base_table()
    p = FormMatrix.from_scalars(t, [[1]])
    chain = bismut_chern(p, 4)
    assert chain == BarChain.from_word(t, (t.sigma(),))


def test_bismut_chern_requires_idempotent():
    t = base_table()
    bad = FormMatrix.from_scalars(t, [[2]])
    with pytest.raises(ValueError):
        bismut_chern(bad, 3)
    off = FormMatrix.parse(t, [["1", "x"], ["0", "1"]])
    with pytest.raises(ValueError):
        bismut_chern(off, 3)


def test_bismut_chern_cyclic_and_even():
    rng = random.Random(12)
    t = rich_table()
    p = random_idempotent(t, rng, n=2, scale=Fraction(1, 3))
    chain = bismut_chern(p, 3)
    assert is_cyclic(chain)
    for word in chain.terms:
        shifted = sum(t.mono_degree(m) for m in word) - len(word)
        assert shifted % 2 == 0


def test_trace_pattern_matches_scalar_expansion():
    rng = random.Random(5)
    t = rich_table()
    m = random_model(t, rng, 2, 2, scale=0.35, q_scale=0.8)
    p = random_idempotent(t, rng, n=2, scale=Fraction(1, 4))
    for coeff, word in bismut_words(p, 2):
        via_matrix = chern_t(m, 1.0, word)
        chain = BarChain.from_words(t, fredholm._trace_words(word, 1))
        via_chain = chern_t(m, 1.0, chain)
        assert abs(via_matrix - via_chain) < 1e-11


# -- heat-supertrace comparison -----------------------------------------------------------------------


def test_mckean_singer_flat_cases():
    rng = random.Random(14)
    t = base_table()
    m = random_model(t, rng)
    # dp = 0: both sides are Str(p-hat e^(-t^2 Q^2))
    p = FormMatrix.from_scalars(t, [[1, 0], [0, 0]])
    rep = mckean_singer_check(m, p, t=1.0)
    assert rep.difference < 1e-12
    # p = identity: both sides are Str(e^(-Q^2))
    p1 = FormMatrix.from_scalars(t, [[1]])
    rep = mckean_singer_check(m, p1, t=1.0)
    ref = complex(np.trace(m.grading @ expm(-(m.Q @ m.Q))))
    assert abs(rep.lhs - ref) < 1e-12
    assert rep.difference < 1e-12


def test_mckean_singer_random_model():
    rng = random.Random(51)
    t = rich_table()
    m = random_model(t, rng, 2, 2, scale=0.35, q_scale=0.8)
    p = random_idempotent(t, rng, n=2, scale=Fraction(1, 4))
    R = curvature_word_matrix(p)
    assert not R.is_zero()
    rep = mckean_singer_check(m, p, t=1.0)
    assert rep.difference < 1e-8
    # the closed form is the limit of the per-word series
    series = sum(complex(c) * chern_t(m, 1.0, w) for c, w in bismut_words(p, 10))
    assert abs(series - rep.lhs) < 1e-12


def test_mckean_singer_pins_the_two_slot_sign(monkeypatch):
    # F(theta1, theta2) enters the closed form with its own sign; flipping
    # it must break the comparison, so the check is not circular
    rng = random.Random(51)
    t = rich_table()
    m = random_model(t, rng, 2, 2, scale=0.35, q_scale=0.8)
    p = random_idempotent(t, rng, n=2, scale=Fraction(1, 4))
    scaled_f2 = fredholm._scaled_f2
    monkeypatch.setattr(fredholm, "_scaled_f2", lambda *a: -scaled_f2(*a))
    rep = mckean_singer_check(m, p, t=1.0)
    assert rep.difference > 1e-4


def test_mckean_singer_scaled_module():
    rng = random.Random(52)
    t = rich_table()
    m = random_model(t, rng, 2, 2, scale=0.4, q_scale=0.7)
    p = random_idempotent(t, rng, n=2, scale=Fraction(1, 4))
    rep = mckean_singer_check(m, p, t=0.8)
    assert rep.difference < 1e-8


def _model_and_idempotent(table, seed):
    rng = random.Random(seed)
    m = random_model(table, rng, 2, 2, scale=0.35, q_scale=0.8)
    return m, random_idempotent(table, rng, n=2, scale=Fraction(1, 4))


def _same_report(a, b):
    return (a.lhs, a.rhs_heat_sq, a.difference) == (b.lhs, b.rhs_heat_sq, b.difference)


def test_a_time_sweep_reuses_the_exact_stage_held_on_p():
    table = rich_table()
    m, p = _model_and_idempotent(table, 51)
    mckean_singer_check(m, p, t=1.0)
    stage = p._memo["mckean_singer"]
    warm = mckean_singer_check(m, p, t=0.6)
    assert p._memo["mckean_singer"] is stage
    # a fresh, equal p on a fresh, equal model: bit-equal values
    m2, _ = _model_and_idempotent(table, 51)
    fresh = FormMatrix(table, p.rows)
    assert fresh._memo is None
    assert _same_report(warm, mckean_singer_check(m2, fresh, t=0.6))


def test_a_table_change_invalidates_what_p_holds():
    table = rich_table()
    m, p = _model_and_idempotent(table, 51)
    R = curvature_word_matrix(p)
    mckean_singer_check(m, p, t=0.7)
    table.add_generator("s", 2)
    assert curvature_word_matrix(p) == R
    assert curvature_word_matrix(p) is not R
    # a new differential changes dp, so R and both sides of the check change
    table.set_differential("w", "z")
    fresh = FormMatrix(table, p.rows)
    assert curvature_word_matrix(fresh) != R
    assert curvature_word_matrix(p) == curvature_word_matrix(fresh)
    assert _same_report(mckean_singer_check(m, p, t=0.7),
                        mckean_singer_check(m, fresh, t=0.7))


def test_a_warm_model_follows_a_new_differential():
    # the model's block memo is keyed by the exact stage, d theta' included,
    # so a block built before set_differential is not served after it
    table = rich_table()
    m = random_model(table, random.Random(3), 2, 2)
    word = (table.parse("w + v"), table.parse("w v"))
    before = chern_t(m, 0.7, word)
    table.set_differential("w", "z")
    fresh_table = rich_table()
    fresh_table.set_differential("w", "z")
    fresh = random_model(fresh_table, random.Random(3), 2, 2)
    want = chern_t(fresh, 0.7, (fresh_table.parse("w + v"), fresh_table.parse("w v")))
    assert want != before
    assert chern_t(m, 0.7, word) == want


def test_bismut_chern_leaves_only_r_on_p():
    table = rich_table()
    _, p = _model_and_idempotent(table, 51)
    bismut_chern(p, 2)
    assert set(p._memo) == {"generation", "R"}
    assert curvature_word_matrix(p) is p._memo["R"]


# -- the model's memo of c_t matrices --------------------------------------------------------


def _counting_c(monkeypatch):
    """Count the calls of FredholmModel.c from here on."""
    calls = []
    c = FredholmModel.c

    def counted(self, form, t=1.0):
        calls.append(t)
        return c(self, form, t)

    monkeypatch.setattr(FredholmModel, "c", counted)
    return calls


def test_a_check_at_a_time_seen_forms_no_c_matrix(monkeypatch):
    table = rich_table()
    m, p = _model_and_idempotent(table, 51)
    first = mckean_singer_check(m, p, t=0.35)
    calls = _counting_c(monkeypatch)
    again = mckean_singer_check(m, p, t=0.35)
    assert calls == []
    assert _same_report(first, again)
    # a new time forms new matrices
    mckean_singer_check(m, p, t=0.5)
    assert calls


def test_one_check_forms_each_distinct_c_matrix_once(monkeypatch):
    table = rich_table()
    m, p = _model_and_idempotent(table, 51)
    t = 0.35
    R = curvature_word_matrix(p)
    prime, second, d_prime = fredholm._slot_forms(R)
    alpha_product = fredholm._pair_forms(prime, prime)[2]
    # six keys, and equal matrices are one: with this seed R'', dR' and
    # alpha(R') R' are all zero
    distinct = {(p, t), (prime, t), (prime, -t), (second, t), (d_prime, t),
                (alpha_product, t)}
    assert len(distinct) == 4
    calls = _counting_c(monkeypatch)
    mckean_singer_check(m, p, t=t)
    n = p.shape[0]
    assert len(calls) == n * n * len(distinct)
    assert set(m._block_cache) == distinct


def test_a_held_c_matrix_is_read_only():
    table = rich_table()
    m, p = _model_and_idempotent(table, 51)
    held = fredholm._cmat(m, p, 0.5)
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0, 0] = 1.0
    assert fredholm._cmat(m, p, 0.5) is held


def test_equal_form_matrices_share_one_entry():
    table = rich_table()
    m = random_model(table, random.Random(3), 2, 2)
    a = FormMatrix.parse(table, [["w + v y", "0"], ["1", "w v"]])
    b = FormMatrix.parse(table, [["v y + w", "0"], ["1", "v w"]])
    assert a == b and a is not b
    assert fredholm._cmat(m, a, 0.5) is fredholm._cmat(m, b, 0.5)
    assert len(m._block_cache) == 1


# -- forms from another table -----------------------------------------------------------------


def reordered_table():
    """rich_table's generators declared in another order, so the same
    monomial has other generator ids."""
    t = GeneratorTable(6)
    t.add_generator("v", 2)
    t.add_generator("z", 3)
    t.set_differential("v", "z")
    t.add_generator("w", 2)
    t.add_generator("y", 3)
    t.set_differential("w", "y")
    return t


def test_mckean_singer_rejects_an_idempotent_from_another_table():
    table = rich_table()
    m, p = _model_and_idempotent(table, 51)
    other = FormMatrix.parse(reordered_table(),
                             [[e.canonical_str() for e in row] for row in p.rows])
    with pytest.raises(TableMismatchError):
        mckean_singer_check(m, other, t=0.5)
    assert not m._block_cache
    assert mckean_singer_check(m, p, t=0.5).difference < 1e-8


def test_chern_rejects_a_form_matrix_from_another_table():
    table = rich_table()
    m = random_model(table, random.Random(3), 2, 2)
    word = (FormMatrix.parse(reordered_table(), [["w + v y"]]),)
    with pytest.raises(TableMismatchError):
        chern_t(m, 0.5, word)
    assert not m._block_cache
    assert chern_t(m, 0.5, (FormMatrix.parse(table, [["w + v y"]]),)) != 0
