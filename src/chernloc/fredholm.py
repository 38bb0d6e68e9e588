"""Finite-dimensional matrix models of Fredholm modules.

A model is a graded vector space C^(p+q) with grading diag(+1,...,-1,...),
an odd matrix Q, and a linear assignment of matrices to the sigma-free
monomials of a form algebra.  On top of this the module provides:

* the curvature cochain F (arities 0, 1, 2; higher ones vanish), with the
  two-slot sign fixed by F = beta(omega) + omega^2.  Rescaling weighs form
  degree k by t^k, and each block is one pass over the monomials through
  c_t(X) = sum_m t^deg(m) coeff c(m): for theta = theta' + sigma theta''
  and alpha the degree involution, F1_t(theta) = c_t(d theta') - c_t(theta'')
  - t (Q c_t(theta') - c_(-t)(theta') Q) and F2_t(theta1, theta2) =
  c_t(alpha(theta1') theta2') - c_(-t)(theta1') c_t(theta2');
* the rescaled Chern character as a perturbation series over simplices,
  summed in one block upper-triangular matrix exponential (the empty word
  included);
* idempotent calculus: the cyclic chain built from R = (2p-1)dp + sigma(dp)^2
  and the heat-supertrace comparison for D_p = D + c((2p-1)dp), whose left
  side sums the character of the whole chain in one Duhamel integral
  int e^(-s_0 X) (-F(sigma p)) e^(-s_1 X) with X = t^2 Q^2 - F(R) + F(R, R);
  no two-slot block joins sigma p to R, since F(.,.) reads only sigma-free
  parts and sigma p has none.  Both sides reuse two pieces: (2p-1)dp is
  the sigma-free part of R, and -F1_t(sigma p) = c_t(p).  The per-word
  series (``bismut_words`` and ``chern_t``) is the test oracle.

Words may have matrix-valued entries (forms tensored with M_n); the
evaluation then runs on H tensor C^n with the trace pattern of the index
contraction built in, and is validated against the expanded scalar chain.

Only c_t depends on t.  Each block is built in two stages: an exact
stage, the same at every t (theta', theta'' and d theta' of a slot,
alpha(theta1') theta2' of a pair), and the numeric stage c_t.  Two kinds of
state hold results between calls, one per stage:

* an idempotent p holds its exact stage on itself: R, from the first
  :func:`curvature_word_matrix` call, and the exact stage of R's blocks
  (R', R'', dR', alpha(R') R'), from the first :func:`mckean_singer_check`.
  So a time sweep does p's exact algebra once.  The memo dies with p, and
  it is stamped with the table's ``generation``: ``add_generator`` and
  ``set_differential`` invalidate it.  :func:`bismut_chern` builds R only;
* a model memoizes its c_t matrices, ``_block_cache``: c_t(X) is held
  under the content of X and the float t, so a check at a time already
  seen forms no c_t matrix again, and equal form matrices share one entry.
  A content key cannot go stale (monomial degrees and ``c_map`` never
  change).  The memo has no bound in t: a model evaluated at many times
  keeps the matrices of each of them.

Models are immutable after construction apart from that memo.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

import numpy as np

from .barcomplex import BarChain, Cochain, has_block_parity
from .formmatrix import FormMatrix, mat_exp_nilpotent
from .multiform import SIGMA_ID, FormElement, _integer
from .scalars import QC, QC_ONE, TableMismatchError


def _expm(a):
    """Matrix exponential; scipy is imported on the first call, so importing
    the package does not pay for ``scipy.linalg``."""
    from scipy.linalg import expm
    return expm(a)


# -- the model -------------------------------------------------------------------


class FredholmModel:
    """(H, Q, c) with H = C^(dim_plus + dim_minus), Q odd, c per monomial."""

    def __init__(self, table, dim_plus, dim_minus, Q, c_map):
        self.table = table
        self.dim_plus = _dimension(dim_plus, "dim_plus")
        self.dim_minus = _dimension(dim_minus, "dim_minus")
        self.dim = self.dim_plus + self.dim_minus
        self.Q = np.asarray(Q, dtype=complex)
        if not isinstance(c_map, Mapping):
            raise ValueError(f"'c' must map monomials to matrices, got {c_map!r}")
        cm = {}
        for mono, mat in c_map.items():
            cm[tuple(mono)] = np.asarray(mat, dtype=complex)
        cm.setdefault((), np.eye(self.dim, dtype=complex))
        self.c_map = cm
        self._block_cache = {}
        problems = self.structure_report()
        if problems:
            raise ValueError("bad model: " + "; ".join(problems))

    # -- structure -----------------------------------------------------------
    @property
    def grading(self):
        return np.diag([1.0] * self.dim_plus + [-1.0] * self.dim_minus).astype(complex)

    def structure_report(self):
        problems = []
        if self.Q.shape != (self.dim, self.dim):
            problems.append("Q has the wrong shape")
        elif not np.isfinite(self.Q).all():
            problems.append("Q has a non-finite entry")
        elif not has_block_parity(self.Q, self.dim_plus, 1):
            problems.append("Q is not odd for the grading")
        for mono, mat in self.c_map.items():
            if mat.shape != (self.dim, self.dim):
                problems.append(f"c({self.table.mono_str(mono)}) has the wrong shape")
                continue
            if SIGMA_ID in mono:
                problems.append("c is only defined on sigma-free monomials")
                continue
            if not np.isfinite(mat).all():
                problems.append(f"c({self.table.mono_str(mono)}) has a non-finite entry")
            elif not has_block_parity(mat, self.dim_plus,
                                      self.table.mono_degree(mono) & 1):
                problems.append(f"c({self.table.mono_str(mono)}) parity mismatch")
        return problems

    def relation_report(self):
        """Spot-check the module relations on degree-zero forms (reported,
        not enforced: generic models need not satisfy them)."""
        report = {}
        one = self.c_map[()]
        report["c(1) is identity"] = bool(np.allclose(one, np.eye(self.dim)))
        comm = self.Q @ one - one @ self.Q
        report["[Q, c(1)] = c(d1) = 0"] = bool(np.allclose(comm, 0))
        ok = True
        for mono, mat in self.c_map.items():
            if not np.allclose(one @ mat, mat):
                ok = False
        report["c(1 * theta) = c(1) c(theta)"] = bool(ok)
        return report

    # -- the assignment c ------------------------------------------------------
    def c(self, form, t=1.0):
        """c_t(form) = sum_m t^deg(m) coeff c(m); a monomial without a
        matrix contributes nothing."""
        if form.table is not self.table:
            raise TableMismatchError("a form over another generator table than the model's")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for mono, coeff in form.terms.items():
            if SIGMA_ID in mono:
                raise ValueError("c is not defined on sigma-containing monomials")
            mat = self.c_map.get(mono)
            if mat is not None:
                out += (t ** self.table.mono_degree(mono)) * complex(coeff) * mat
        return out


def _dimension(value, key):
    """A graded dimension: a non-negative int; a float or bool is refused,
    not truncated."""
    value = _integer(value, repr(key))
    if value < 0:
        raise ValueError(f"{key!r} must be non-negative, got {value}")
    return value


def random_model(table, rng, dim_plus=2, dim_minus=2, scale=0.6, q_scale=1.0):
    """Random hermitian-Q model with parity-consistent c assignments."""
    dim = dim_plus + dim_minus
    B = np.array([[rng.gauss(0, 1) + 1j * rng.gauss(0, 1)
                   for _ in range(dim_minus)] for _ in range(dim_plus)])
    Q = np.zeros((dim, dim), dtype=complex)
    Q[:dim_plus, dim_plus:] = B
    Q[dim_plus:, :dim_plus] = B.conj().T
    Q *= q_scale
    c_map = {}
    for mono in _all_monomials(table):
        if not mono or SIGMA_ID in mono:
            continue
        M = np.zeros((dim, dim), dtype=complex)
        if table.mono_degree(mono) % 2 == 0:
            M[:dim_plus, :dim_plus] = _rand_block(rng, dim_plus, dim_plus, scale)
            M[dim_plus:, dim_plus:] = _rand_block(rng, dim_minus, dim_minus, scale)
        else:
            M[:dim_plus, dim_plus:] = _rand_block(rng, dim_plus, dim_minus, scale)
            M[dim_plus:, :dim_plus] = _rand_block(rng, dim_minus, dim_plus, scale)
        c_map[mono] = M
    return FredholmModel(table, dim_plus, dim_minus, Q, c_map)


def _rand_block(rng, n, m, scale):
    return np.array([[scale * (rng.gauss(0, 1) + 1j * rng.gauss(0, 1)) / math.sqrt(n * m)
                      for _ in range(m)] for _ in range(n)])


def _all_monomials(table):
    """All sigma-free monomials of non-sigma degree <= top."""
    gens = [gid for gid in range(1, len(table.names))]
    out = {()}
    frontier = {()}
    while frontier:
        new = set()
        for mono in frontier:
            for g in gens:
                prod, sign = table.mul_monomials(mono, (g,))
                if prod is not None and prod not in out:
                    new.add(prod)
        out |= new
        frontier = new
    return sorted(out)


# -- curvature -------------------------------------------------------------------


def connection_cochain(model):
    table = model.table

    def arity0(word):
        return -model.Q

    def arity1(word):
        mono = word[0]
        prime, _ = FormElement(table, {mono: QC_ONE}).split_sigma()
        return model.c(prime)

    return Cochain(table, 1, {0: arity0, 1: arity1}, dim=model.dim)


def curvature_cochain(model):
    """F = beta(omega) + omega^2 for the connection cochain omega(emptyset) = -Q,
    omega(theta) = c(theta'): F(emptyset) = Q^2, plus one-slot and two-slot
    parts (the rescaled blocks at t = 1); all other arities vanish."""
    table = model.table
    F0 = model.Q @ model.Q

    def arity0(word):
        return F0

    def arity1(word):
        slot, = _as_form_matrix_word(table, word)
        return _scaled_f1(model, 1.0, _slot_forms(slot),
                          np.kron(np.eye(slot.shape[0], dtype=complex), model.Q))

    def arity2(word):
        slot1, slot2 = _as_form_matrix_word(table, word)
        return _scaled_f2(model, 1.0, _pair_forms(slot1.split_sigma()[0],
                                                  slot2.split_sigma()[0]))

    return Cochain(table, 0, {0: arity0, 1: arity1, 2: arity2}, dim=model.dim)


# -- simplex integrals ---------------------------------------------------------------


def simplex_matrix_integral(A, Bs, Bs2=()):
    """int_{sum s_p = 1, s_p >= 0} e^(-s_0 A) B_1 e^(-s_1 A) ... B_k e^(-s_k A) ds
    for Bs = [B_1, ..., B_k]: the top-right block of expm of the block
    upper-triangular matrix with -A on the diagonal and Bs on the first
    superdiagonal (Van Loan's construction).  Blocks ``Bs2`` on the second
    superdiagonal add the paths that skip a slot, so the corner sums the
    simplex integrals of every index-increasing path through the blocks.
    """
    k = len(Bs)
    n = A.shape[0]
    big = np.zeros(((k + 1) * n, (k + 1) * n), dtype=complex)
    for p in range(k + 1):
        big[p * n:(p + 1) * n, p * n:(p + 1) * n] = -A
    for p, B in enumerate(Bs):
        big[p * n:(p + 1) * n, (p + 1) * n:(p + 2) * n] = B
    for p, B in enumerate(Bs2):
        big[p * n:(p + 1) * n, (p + 2) * n:(p + 3) * n] = B
    return _expm(big)[0:n, k * n:(k + 1) * n]


# -- the Chern character ----------------------------------------------------------------


def _as_form_matrix_word(table, word):
    out = []
    for entry in word:
        if isinstance(entry, FormMatrix):
            out.append(entry)
        elif isinstance(entry, FormElement):
            out.append(FormMatrix(table, [[entry]]))
        else:
            out.append(FormMatrix(table, [[FormElement(table, {tuple(entry): QC_ONE})]]))
    return tuple(out)


def _cmat(model, formmat, t=1.0):
    """c_t(X) = sum_m t^deg(m) coeff c(m) applied to a matrix of sigma-free
    forms, as an operator on H tensor C^n (block (i, j) is c_t of entry (i, j)).
    The one stage that depends on t holds the model's one memo: the result
    is kept, read-only, in ``model._block_cache`` under (X, t)."""
    cache = model._block_cache
    key = (formmat, t)
    out = cache.get(key)
    if out is None:
        d = model.dim
        n, m = formmat.shape
        out = np.empty((n * d, m * d), dtype=complex)
        for i, row in enumerate(formmat.rows):
            for j, form in enumerate(row):
                out[i * d:(i + 1) * d, j * d:(j + 1) * d] = model.c(form, t)
        out.flags.writeable = False
        cache[key] = out
    return out


def _supertrace(model, M):
    """Str M for an operator M on H tensor C^n: the grading's diagonal,
    tiled n times, times the diagonal of M, summed elementwise."""
    signs = np.tile(np.diagonal(model.grading), M.shape[0] // model.dim)
    return complex((signs * np.diagonal(M)).sum())


def chern_t(model, t, target):
    """The rescaled Chern character evaluated on a word or chain.

    Each admissible splitting of the word into adjacent blocks of size one
    or two contributes
    (-1)^k  t^(|theta| - N + 2k)  int_simplex Str(e^(-t^2 tau_1 Q^2)
    prod_p F(block_p) e^(-t^2 (tau_{p+1}-tau_p) Q^2)) dtau,
    and all splittings are summed in one block exponential.  The value is
    multilinear in the word, so a word of forms, form matrices or monomials
    is evaluated as it stands, without expanding it into monomial words.
    """
    _check_time(t)
    if isinstance(target, BarChain):
        total = 0j
        for word, coeff in target.terms.items():
            total += complex(coeff) * chern_t(model, t, word)
        return total
    return _chern_matrix_word(model, t, _as_form_matrix_word(model.table, tuple(target)))


def _check_time(t):
    """The scaling parameter must be a positive finite real."""
    if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 < t < math.inf:
        raise ValueError("the scaling parameter must be positive")


def _slot_forms(slot):
    """The exact stage of a one-slot block, which does not depend on t:
    (theta', theta'', d theta') for slot = theta' + sigma theta''."""
    prime, second = slot.split_sigma()
    return prime, second, prime.d()


def _pair_forms(prime1, prime2):
    """The exact stage of a two-slot block, which does not depend on t:
    (theta1', theta2', alpha(theta1') theta2') for the sigma-free parts of
    the slots, with alpha the degree involution (the degree-k part times
    (-1)^k)."""
    table = prime1.table
    alpha1 = prime1.map_entries(lambda e: FormElement._wrap(table, {
        m: -c if table.mono_degree(m) & 1 else c for m, c in e.terms.items()}))
    return prime1, prime2, alpha1 @ prime2


def _scaled_f1(model, t, forms, Qh):
    """The one-slot curvature of the rescaled module, sum over homogeneous
    parts of t^(deg+1) F(part), from the stage ``forms = _slot_forms(theta)``
    and ``Qh`` = Q^ = 1 (x) Q:

        F1_t = c_t(d theta') - c_t(theta'') - t (Q^ c_t(theta') - c_(-t)(theta') Q^),

    where c_(-t) gives the degree-k part the sign (-1)^k of the graded
    commutator.  So -F1_t(sigma p) = c_t(p)."""
    prime, second, d_prime = forms
    return _cmat(model, d_prime, t) - _cmat(model, second, t) \
        - t * (Qh @ _cmat(model, prime, t) - _cmat(model, prime, -t) @ Qh)


def _scaled_f2(model, t, pair):
    """The two-slot curvature of the rescaled module, sum over pairs of
    homogeneous parts of t^(deg1+deg2) F(part1, part2), from the stage
    ``pair = _pair_forms(theta1', theta2')``:

        F2_t(theta1, theta2) = c_t(alpha(theta1') theta2') - c_(-t)(theta1') c_t(theta2').
    """
    prime1, prime2, alpha_product = pair
    return _cmat(model, alpha_product, t) \
        - _cmat(model, prime1, -t) @ _cmat(model, prime2, t)


def _chern_matrix_word(model, t, mats):
    """Sum over block splittings; the t powers are absorbed into the blocks
    (simplex integrals are multilinear in them), so mixed-degree entries
    need no separate expansion.

    The whole splitting sum is one block upper-triangular exponential:
    index-increasing paths from the first to the last block of expm
    reproduce every splitting with its simplex integral and the alternating
    sign carried by the off-diagonal blocks.  The empty word is the 1 x 1
    case, Str(e^(-t^2 Q^2)).
    """
    n = mats[0].shape[0] if mats else 1
    for m in mats:
        if m.shape[0] != n:
            raise ValueError("mixed auxiliary dimensions in a word")
    forms = [_slot_forms(m) for m in mats]
    Qh = np.kron(np.eye(n, dtype=complex), model.Q)
    corner = simplex_matrix_integral(
        (t ** 2) * (Qh @ Qh), [-_scaled_f1(model, t, f, Qh) for f in forms],
        [-_scaled_f2(model, t, _pair_forms(f1[0], f2[0]))
         for f1, f2 in zip(forms, forms[1:])])
    return _supertrace(model, corner)


# -- idempotents and the heat-supertrace comparison ----------------------------------------


def _exact_memo(p):
    """The memo of exact results held on p, emptied first if p's table has
    changed since it was filled."""
    generation = p.table.generation
    memo = p._memo
    if memo is None or memo["generation"] != generation:
        memo = p._memo = {"generation": generation}
    return memo


def curvature_word_matrix(p):
    """R = (2p - 1) dp + sigma (dp)^2 for an exact idempotent matrix p.

    R is computed, and p checked for p^2 = p, once per p object: the result
    is held on p until p's table changes (``add_generator`` or
    ``set_differential``).  A p that fails the check is checked again on
    every call.
    """
    memo = _exact_memo(p)
    R = memo.get("R")
    if R is None:
        table = p.table
        if not (p @ p - p).is_zero():
            raise ValueError("p is not an exact idempotent")
        dp = p.d()
        two_p_1 = p.scale(2) - FormMatrix.identity(table, p.shape[0])
        R = memo["R"] = (two_p_1 @ dp) + (dp @ dp).scale_form(table.sigma())
    return R


def _trace_words(mats, coeff):
    """(coeff, word) pairs of the index-contracted expansion of a matrix
    word: slot s carries the entry Theta_s[a_{s-1}, a_s] with a_0 = a_M."""
    n = mats[0].shape[0]
    M = len(mats)
    for idx in _cartesian(range(n), repeat=M):
        word = []
        prev = idx[-1]
        for s in range(M):
            entry = mats[s][prev, idx[s]]
            if entry.is_zero():
                break
            word.append(entry)
            prev = idx[s]
        else:
            yield coeff, tuple(word)


def bismut_words(p, n_max):
    """Yield (coefficient, matrix word) pairs of the idempotent chain."""
    table = p.table
    R = curvature_word_matrix(p)
    sigma_p = p.scale_form(table.sigma())
    for N in range(n_max + 1):
        coeff = QC((-1) ** N)
        if N > 0 and R.is_zero():
            return
        for k in range(N + 1):
            yield coeff, tuple([R] * k + [sigma_p] + [R] * (N - k))


def bismut_chern(p, n_max):
    """The cyclic chain sum_N (-1)^N sum_k tr(R,...,R, sigma p, R,...,R).

    Entries are index-expanded into scalar words.  Truncation is automatic
    once R vanishes; otherwise the series is cut at ``n_max``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    return BarChain.from_words(p.table, (
        pair for coeff, word in bismut_words(p, n_max)
        for pair in _trace_words(word, coeff)))


def random_idempotent(table, rng, n=2, scale=Fraction(1, 2)):
    """g p0 g^(-1) for the constant rank-one projection p0 = e_11 and
    unipotent g = exp(nu).

    nu has dense even-form entries so that dp and (dp)^2 are generically
    nonzero (when the table has non-closed even generators and enough room
    above degree four).
    """
    p0 = FormMatrix.from_scalars(
        table, [[1 if i == j == 0 else 0 for j in range(n)]
                for i in range(n)])
    gens = [g for g in range(1, len(table.names))
            if table.degree_of(g) % 2 == 0]
    if not gens:
        return p0
    z = table.zero()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = z
            for g in rng.sample(gens, k=min(len(gens), rng.randint(1, 2))):
                c = scale * Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                if c:
                    e = e + FormElement(table, {(g,): QC_ONE}).scale(c)
            row.append(e)
        rows.append(row)
    nu = FormMatrix(table, rows)
    g = mat_exp_nilpotent(nu)
    g_inv = mat_exp_nilpotent(-nu)
    return (g @ p0) @ g_inv


@dataclass
class McKeanSingerReport:
    lhs: complex
    rhs_heat_sq: complex
    difference: float

    def as_dict(self):
        return {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs_heat_sq": [self.rhs_heat_sq.real, self.rhs_heat_sq.imag],
            "difference": self.difference,
        }


def mckean_singer_check(model, p, t=1.0):
    """Compare the character of the idempotent chain with the heat
    supertrace of the twisted operator D_p = D + c((2p-1)dp).

    The left side is the whole chain sum_N (-1)^N sum_k Ch(R^k, sigma p,
    R^(N-k)) in closed form.  A splitting of such a word with i one-slot and
    j two-slot R blocks carries the sign (-1)^(N + i + j + 1) = -(-1)^j, so
    the splittings of all words together are the Dyson expansion of

        Str int_{s_0 + s_1 = 1} e^(-s_0 X) (-F1(sigma p)) e^(-s_1 X) ds,
        X = t^2 Q^2 - F1(R) + F2(R, R),

    one simplex integral with one block.  The blocks F2(R, sigma p) and
    F2(sigma p, R) that would join sigma p to a neighbour vanish: F2 reads
    only the sigma-free parts of its slots, and sigma p has none.  The right
    side is the dense matrix exponential Str(p exp(-D_p^2)).  It is
    exp(-D_p^2), not exp(-D_p): the two differ for a generic model, and
    only the former equals the character of the chain.

    The sides share two pieces: G = (2p-1)dp is the sigma-free part of R,
    and the Duhamel block -F1(sigma p) is c_t(p).

    Only c_t depends on t.  The exact stage of the blocks of R (R', R'',
    dR' and alpha(R')R') is built on the first call for p and held on p
    with R (see :func:`curvature_word_matrix`).  The c_t matrices come from
    the model's memo (:func:`_cmat`): one check forms c_t(R'), c_(-t)(R')
    and c_t(p) once each, and a later check at the same t forms none, so it
    costs the two ``expm``.
    """
    _check_time(t)
    R = curvature_word_matrix(p)
    memo = _exact_memo(p)
    stage = memo.get("mckean_singer")
    if stage is None:
        r_forms = _slot_forms(R)
        stage = memo["mckean_singer"] = (r_forms, _pair_forms(r_forms[0], r_forms[0]))
    r_forms, r_pair = stage
    Qh = np.kron(np.eye(p.shape[0], dtype=complex), model.Q)
    p_hat = _cmat(model, p, t)
    X = (t ** 2) * (Qh @ Qh) - _scaled_f1(model, t, r_forms, Qh) \
        + _scaled_f2(model, t, r_pair)
    lhs = _supertrace(model, simplex_matrix_integral(X, [p_hat]))

    Dp = t * Qh + _cmat(model, r_forms[0], t)
    rhs_sq = _supertrace(model, p_hat @ _expm(-(Dp @ Dp)))
    return McKeanSingerReport(lhs, rhs_sq, abs(lhs - rhs_sq))
