"""Finite-dimensional matrix models of Fredholm modules.

A model is a graded vector space C^(p+q) with grading diag(+1,...,-1,...),
an odd matrix Q, and a linear assignment of matrices to the sigma-free
monomials of a form algebra.  On top of this the module provides:

* the curvature cochain F (arities 0, 1, 2; higher ones vanish), with the
  two-slot sign fixed by F = beta(omega) + omega^2;
* the rescaled Chern character as a perturbation series over simplices,
  summed in one block upper-triangular matrix exponential, with nested
  Gauss-Legendre quadrature over each splitting as the test oracle;
* idempotent calculus: the cyclic chain built from R = (2p-1)dp + sigma(dp)^2
  and the heat-supertrace comparison for D_p = D + c((2p-1)dp), whose left
  side sums the character of the whole chain in one Duhamel integral
  int e^(-s_0 X) (-F(sigma p)) e^(-s_1 X) with X = t^2 Q^2 - F(R) + F(R, R);
  no two-slot block joins sigma p to R, since F(.,.) reads only sigma-free
  parts and sigma p has none.  The per-word series (``bismut_words`` and
  ``chern_t``) is the test oracle.

Words may have matrix-valued entries (forms tensored with M_n); the
evaluation then runs on H tensor C^n with the trace pattern of the index
contraction built in, and is validated against the expanded scalar chain.

Models are immutable after construction apart from an internal memo of
curvature blocks, so independent character evaluations are safe to run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

import numpy as np

from .barcomplex import BarChain, Cochain
from .formmatrix import FormMatrix, mat_exp_nilpotent
from .multiform import SIGMA_ID, FormElement
from .scalars import QC, QC_ONE


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
        self.dim_plus = int(dim_plus)
        self.dim_minus = int(dim_minus)
        self.dim = self.dim_plus + self.dim_minus
        self.Q = np.asarray(Q, dtype=complex)
        cm = {}
        for mono, mat in c_map.items():
            cm[tuple(mono)] = np.asarray(mat, dtype=complex)
        cm.setdefault((), np.eye(self.dim, dtype=complex))
        self.c_map = cm
        problems = self.structure_report()
        if problems:
            raise ValueError("bad model: " + "; ".join(problems))

    # -- structure -----------------------------------------------------------
    @property
    def grading(self):
        return np.diag([1.0] * self.dim_plus + [-1.0] * self.dim_minus).astype(complex)

    def _block_parity(self, mat, tol=1e-12):
        p = self.dim_plus
        diag = np.linalg.norm(mat[:p, :p]) + np.linalg.norm(mat[p:, p:])
        off = np.linalg.norm(mat[:p, p:]) + np.linalg.norm(mat[p:, :p])
        if off <= tol * max(1.0, diag):
            return 0
        if diag <= tol * max(1.0, off):
            return 1
        return None

    def structure_report(self):
        problems = []
        if self.Q.shape != (self.dim, self.dim):
            problems.append("Q has the wrong shape")
        elif not np.isfinite(self.Q).all():
            problems.append("Q has a non-finite entry")
        elif np.any(self.Q) and self._block_parity(self.Q) != 1:
            problems.append("Q is not odd for the grading")
        for mono, mat in self.c_map.items():
            if mat.shape != (self.dim, self.dim):
                problems.append(f"c({mono}) has the wrong shape")
                continue
            if SIGMA_ID in mono:
                problems.append("c is only defined on sigma-free monomials")
                continue
            if not np.isfinite(mat).all():
                problems.append(f"c({self.table.mono_str(mono)}) has a non-finite entry")
            elif np.any(mat):
                want = self.table.mono_degree(mono) & 1
                if self._block_parity(mat) != want:
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
    def c_mono(self, mono):
        if SIGMA_ID in mono:
            raise ValueError("c is not defined on sigma-containing monomials")
        mat = self.c_map.get(tuple(mono))
        if mat is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return mat

    def c(self, form, t=1.0):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for mono, coeff in form.terms.items():
            deg = self.table.mono_degree(mono)
            out += (t ** deg) * complex(coeff) * self.c_mono(mono)
        return out

    def str_of(self, mat):
        return complex(np.trace(self.grading @ mat))


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


def _graded_comm(Q, A, parity):
    return Q @ A - ((-1) ** parity) * (A @ Q)


def connection_cochain(model):
    table = model.table

    def arity0(word):
        return -model.Q

    def arity1(word):
        mono = word[0]
        prime, _ = FormElement(table, {mono: QC_ONE}).split_sigma()
        return model.c(prime)

    return Cochain(table, 1, {0: arity0, 1: arity1}, kind="matrix", dim=model.dim,
                   dim_plus=model.dim_plus)


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
        return _scaled_f1(model, 1.0, slot, {})

    def arity2(word):
        slot1, slot2 = _as_form_matrix_word(table, word)
        return _scaled_f2(model, 1.0, slot1, slot2, {})

    return Cochain(table, 0, {0: arity0, 1: arity1, 2: arity2},
                   kind="matrix", dim=model.dim, dim_plus=model.dim_plus)


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


def simplex_str_quad(A, Bs, weight, order=32):
    """Oracle engine: the composition sum by iterated Gauss-Legendre quadrature
    over the simplex, evaluated in the eigenbasis of A.  The outer levels
    loop over nodes; the innermost level runs over all nodes at once."""
    k = len(Bs)
    if k == 0:
        return complex(np.trace(weight @ _expm(-A)))
    if k > 4:
        raise ValueError("quadrature oracle is limited to k <= 4")
    herm = np.allclose(A, A.conj().T, atol=1e-12)
    if herm:
        lam, V = np.linalg.eigh(A)
        Vi = V.conj().T
    else:
        lam, V = np.linalg.eig(A)
        Vi = np.linalg.inv(V)
    W = Vi @ weight @ V
    tilde = [Vi @ B @ V for B in Bs]
    xs, ws = np.polynomial.legendre.leggauss(order)

    def integrate(lo, depth, P):
        # P = W e^(-s_0 lam) B~_1 ... e^(-s_(depth-2) lam) B~_(depth-1),
        # with the last time node at lo
        half = (1.0 - lo) / 2.0
        if half <= 0:
            return 0j
        ts = lo + half * (xs + 1.0)
        if depth == k:
            # tr(P e^(-(t - lo) lam) B~_k e^(-(1 - t) lam)) for every node t
            C = tilde[-1] * P.T
            E1 = np.exp(-np.outer(ts - lo, lam))
            E2 = np.exp(-np.outer(1.0 - ts, lam))
            return np.einsum("j,ja,ab,jb->", ws, E1, C, E2) * half
        total = 0j
        for t, w in zip(ts, ws):
            step = (P * np.exp(-(t - lo) * lam)) @ tilde[depth - 1]
            total += w * integrate(t, depth + 1, step)
        return total * half

    return complex(integrate(0.0, 1, W))


def simplex_str(A, Bs, weight, engine="expm", quad_order=32):
    if engine == "expm":
        return complex(np.trace(weight @ simplex_matrix_integral(A, Bs)))
    if engine == "quad":
        return simplex_str_quad(A, Bs, weight, order=quad_order)
    raise ValueError(f"unknown engine {engine!r}")


# -- the Chern character ----------------------------------------------------------------


def _compositions(n):
    """Compositions of n into parts of size one or two."""
    if n == 0:
        yield ()
        return
    for rest in _compositions(n - 1):
        yield (1,) + rest
    if n >= 2:
        for rest in _compositions(n - 2):
            yield (2,) + rest


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
    """c applied to a matrix of sigma-free forms, as an operator on
    H tensor C^n (entry (i,j) block is c of the (i,j) entry)."""
    n = formmat.shape[0]
    dim = model.dim
    out = np.zeros((dim * n, dim * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            form = formmat[i, j]
            if form.is_zero():
                continue
            out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += model.c(form, t)
    return out


def _f1_mat(model, theta, parity):
    prime, second = theta.split_sigma()
    return _cmat(model, prime.d()) \
        - _graded_comm(_kron_model(model, theta.shape[0])[0], _cmat(model, prime), parity) \
        - _cmat(model, second)


def _f2_mat(model, theta1, theta2, parity1):
    p1 = theta1.split_sigma()[0]
    p2 = theta2.split_sigma()[0]
    sign = (-1) ** (parity1 + 1)
    return sign * (_cmat(model, p1) @ _cmat(model, p2) - _cmat(model, p1 @ p2))


def _kron_model(model, n):
    Qh = np.kron(np.eye(n, dtype=complex), model.Q)
    Gh = np.kron(np.eye(n, dtype=complex), model.grading)
    return Qh, Gh


def chern_t(model, t, target, engine="expm"):
    """The rescaled Chern character evaluated on a word or chain.

    Each admissible splitting of the word into adjacent blocks of size one
    or two contributes
    (-1)^k  t^(|theta| - N + 2k)  int_simplex Str(e^(-t^2 tau_1 Q^2)
    prod_p F(block_p) e^(-t^2 (tau_{p+1}-tau_p) Q^2)) dtau.

    ``engine="expm"`` sums all splittings in one block exponential;
    ``engine="quad"`` is the quadrature oracle over each splitting.
    """
    if t <= 0:
        raise ValueError("the scaling parameter must be positive")
    if engine not in ("expm", "quad"):
        raise ValueError(f"unknown engine {engine!r}")
    table = model.table
    if isinstance(target, BarChain):
        total = 0j
        for word, coeff in target.terms.items():
            total += complex(coeff) * chern_t(model, t, word, engine)
        return total
    if isinstance(target, tuple) and target and isinstance(target[0], FormElement):
        chain = BarChain.from_word(table, target)
        return chern_t(model, t, chain, engine)
    if isinstance(target, tuple) and target and isinstance(target[0], FormMatrix):
        return _chern_matrix_word(model, t, target, engine)
    # monomial word (possibly empty)
    word = tuple(target)
    mats = _as_form_matrix_word(table, word)
    return _chern_matrix_word(model, t, mats, engine)


def _scaled_f1(model, t, slot, cache):
    """sum over homogeneous parts of t^(deg+1) F(part): the one-slot
    curvature of the rescaled module."""
    key = ("f1", slot, t)
    out = cache.get(key)
    if out is not None:
        return out
    n = slot.shape[0]
    out = np.zeros((model.dim * n, model.dim * n), dtype=complex)
    for deg, part in slot.homogeneous_parts().items():
        out += (t ** (deg + 1)) * _f1_mat(model, part, deg & 1)
    cache[key] = out
    return out


def _scaled_f2(model, t, slot1, slot2, cache):
    key = ("f2", slot1, slot2, t)
    out = cache.get(key)
    if out is not None:
        return out
    n = slot1.shape[0]
    out = np.zeros((model.dim * n, model.dim * n), dtype=complex)
    for d1, part1 in slot1.homogeneous_parts().items():
        for d2, part2 in slot2.homogeneous_parts().items():
            out += (t ** (d1 + d2)) * _f2_mat(model, part1, part2, d1 & 1)
    cache[key] = out
    return out


def _chern_matrix_word(model, t, mats, engine):
    """Sum over block splittings; the t powers are absorbed into the blocks
    (simplex integrals are multilinear in them), so mixed-degree entries
    need no separate expansion.

    The expm engine evaluates the whole splitting sum in one block
    upper-triangular exponential: index-increasing paths from the first to
    the last block of expm reproduce every splitting with its simplex
    integral and the alternating sign carried by the off-diagonal blocks.
    """
    if not mats:
        A = (t ** 2) * (model.Q @ model.Q)
        return complex(simplex_str(A, [], model.grading, engine))
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != n:
            raise ValueError("mixed auxiliary dimensions in a word")
    cache = model.__dict__.setdefault("_block_cache", {})
    N = len(mats)
    Qh, Gh = _kron_model(model, n)
    A = (t ** 2) * (Qh @ Qh)
    if engine == "expm":
        corner = simplex_matrix_integral(
            A, [-_scaled_f1(model, t, mats[i], cache) for i in range(N)],
            [-_scaled_f2(model, t, mats[i], mats[i + 1], cache) for i in range(N - 1)])
        return complex(np.trace(Gh @ corner))
    total = 0j
    for comp in _compositions(N):
        k = len(comp)
        blocks = []
        pos = 0
        dead = False
        for part in comp:
            if part == 1:
                B = _scaled_f1(model, t, mats[pos], cache)
            else:
                B = _scaled_f2(model, t, mats[pos], mats[pos + 1], cache)
            pos += part
            if not np.any(B):
                dead = True
                break
            blocks.append(B)
        if dead:
            continue
        value = simplex_str_quad(A, blocks, Gh)
        total += ((-1) ** k) * value
    return total


# -- idempotents and the heat-supertrace comparison ----------------------------------------


def curvature_word_matrix(p):
    """R = (2p - 1) dp + sigma (dp)^2 for an exact idempotent matrix p."""
    table = p.table
    if not (p @ p - p).is_zero():
        raise ValueError("p is not an exact idempotent")
    dp = p.d()
    two_p_1 = p.scale(2) - FormMatrix.identity(table, p.shape[0])
    return (two_p_1 @ dp) + (dp @ dp).scale_form(table.sigma())


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
    return BarChain.from_words(p.table, (
        pair for coeff, word in bismut_words(p, n_max)
        for pair in _trace_words(word, coeff)))


def random_idempotent(table, rng, n=2, scale=Fraction(1, 2), rank=1):
    """g p0 g^(-1) for a constant projection p0 and unipotent g = exp(nu).

    nu has dense even-form entries so that dp and (dp)^2 are generically
    nonzero (when the table has non-closed even generators and enough room
    above degree four).
    """
    p0 = FormMatrix.from_scalars(
        table, [[1 if (i == j and i < rank) else 0 for j in range(n)]
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
    """
    table = model.table
    n = p.shape[0]
    R = curvature_word_matrix(p)
    sigma_p = p.scale_form(table.sigma())
    cache = model.__dict__.setdefault("_block_cache", {})
    Qh, Gh = _kron_model(model, n)
    X = (t ** 2) * (Qh @ Qh) - _scaled_f1(model, t, R, cache) \
        + _scaled_f2(model, t, R, R, cache)
    inner = simplex_matrix_integral(X, [-_scaled_f1(model, t, sigma_p, cache)])
    lhs = complex(np.trace(Gh @ inner))

    G = (p.scale(2) - FormMatrix.identity(table, n)) @ p.d()
    Gp = _cmat(model, G, t)
    Dp = t * Qh + Gp
    p_hat = _cmat(model, p, t)
    rhs_sq = complex(np.trace(Gh @ p_hat @ _expm(-(Dp @ Dp))))
    return McKeanSingerReport(lhs, rhs_sq, abs(lhs - rhs_sq))
