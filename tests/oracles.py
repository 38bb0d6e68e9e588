"""Reference implementations that the tests compare library results against.

None of them is on a production path, so they live beside the tests:

* :func:`simplex_str_quad`, nested Gauss-Legendre quadrature over one
  splitting, the per-splitting oracle of the block-triangular ``expm``;
* :func:`cochain_parity_report`, the shifted-parity check of cochain values;
* :func:`represent`, the spinor matrix image of a Clifford element.
"""

from functools import reduce

import numpy as np
from scipy.linalg import expm

from chernloc.barcomplex import BarChain, _prefix_degrees, has_block_parity
from chernloc.clifford import spinor_representation
from chernloc.scalars import iszero


def simplex_str_quad(A, Bs, weight, order=32):
    """Test oracle for one splitting: tr(weight int_simplex ...) as in
    :func:`chernloc.fredholm.simplex_matrix_integral`, by iterated
    Gauss-Legendre quadrature over the simplex in the eigenbasis of A.  The
    outer levels loop over nodes; the innermost level runs over all nodes at
    once."""
    k = len(Bs)
    if k == 0:
        return complex(np.trace(weight @ expm(-A)))
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


def cochain_parity_report(l, words, dim_plus):
    """Check value parity against the shifted word parity on sample words.

    For matrix cochains the value must populate only the blocks of parity
    (|l| + n_N) mod 2 with respect to the grading split at ``dim_plus``.
    """
    bad = []
    for word in words:
        chain = BarChain.from_word(l.table, word)
        for w, _ in chain.terms.items():
            n_par = _prefix_degrees(l.table, w)[len(w)] & 1
            v = l.eval_word(w)
            want = n_par ^ l.parity
            if l.dim is None:
                if not iszero(v) and want:
                    bad.append((w, "odd value on scalar cochain"))
            elif not has_block_parity(v, dim_plus, want):
                bad.append((w, "odd slot carries even blocks" if want
                            else "even slot carries odd blocks"))
    return bad


def represent(a):
    """Matrix image of a Clifford element."""
    gammas, _ = spinor_representation(a.dim)
    n = gammas[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    for mask, coeff in a.terms.items():
        blade = (gammas[i] for i in range(a.dim) if mask >> i & 1)
        out += complex(coeff) * reduce(np.matmul, blade, np.eye(n, dtype=complex))
    return out
