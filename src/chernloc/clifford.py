"""Clifford algebra Cl(R^d) with quantization map and Berezin supertrace.

The generating relation is ``c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij``,
so ``c(v)^2 = -|v|^2``.  The quantization map sends a wedge monomial of
distinct degree-one generators to the Clifford product of the same
generators; its inverse is the (full) Clifford symbol.  The supertrace picks
out the top coefficient with normalization (2/i)^(d/2), which is pinned by
the matrix representation returned from :func:`spinor_representation` and,
further downstream, by the flat-torus convergence checks.

Coefficients may be plain scalars or elements of a commutative form algebra;
they are treated as central.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .multiform import SIGMA_ID, FormElement, GeneratorTable
from .scalars import QC_ONE, QC_ZERO, coerce, iszero, two_over_i_pow


@lru_cache(maxsize=None)
def exterior_table(d):
    """The exterior algebra model on R^d: generators e1..ed of degree one."""
    table = GeneratorTable(d if d % 2 == 0 else d + 1)
    for i in range(1, d + 1):
        table.add_generator(f"e{i}", 1)
    return table


def _popcount_above(mask, bit):
    return bin(mask >> (bit + 1)).count("1")


def blade_product(a_mask, b_mask):
    """Product of basis blades: returns (mask, sign) under e_i^2 = -1."""
    sign = 1
    result = a_mask
    b = b_mask
    while b:
        low = b & (-b)
        bit = low.bit_length() - 1
        if _popcount_above(result, bit) & 1:
            sign = -sign
        if result & low:
            sign = -sign            # e_i e_i = -1
            result &= ~low
        else:
            result |= low
        b &= b - 1
    return result, sign


class CliffordElement:
    """Sparse Clifford algebra element keyed by basis-subset bitmasks."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        data = {}
        if terms:
            for mask, c in terms.items():
                if isinstance(c, FormElement):
                    if not c.is_zero():
                        data[int(mask)] = c
                else:
                    c = coerce(c)
                    if not iszero(c):
                        data[int(mask)] = c
        self.terms = data

    # -- constructors -----------------------------------------------
    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def one(cls, dim):
        return cls(dim, {0: QC_ONE})

    @classmethod
    def generator(cls, dim, i):
        if not 1 <= i <= dim:
            raise ValueError(f"generator index {i} out of range")
        return cls(dim, {1 << (i - 1): QC_ONE})

    @classmethod
    def from_subset(cls, dim, indices, coeff=1):
        mask = 0
        for i in indices:
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError("repeated index in blade")
            mask |= bit
        return cls(dim, {mask: coeff})

    # -- structure ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def order(self):
        """Clifford order: the largest populated subset size (-1 if zero)."""
        if not self.terms:
            return -1
        return max(bin(m).count("1") for m in self.terms)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("Clifford elements of different dimension")

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            return self + CliffordElement(self.dim, {0: other})
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            dead = s.is_zero() if isinstance(s, FormElement) else iszero(s)
            if dead:
                out.pop(m, None)
            else:
                out[m] = s
        return CliffordElement(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, CliffordElement):
            other = CliffordElement(self.dim, {0: other})
        return self + (-other)

    def scale(self, c):
        return CliffordElement(self.dim, {m: _cmul(c, v) for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        self._check(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mask, sign = blade_product(ma, mb)
                c = _cmul(ca, cb)
                if sign < 0:
                    c = -c
                s = out.get(mask, 0) + c
                dead = s.is_zero() if isinstance(s, FormElement) else iszero(s)
                if dead:
                    out.pop(mask, None)
                else:
                    out[mask] = s
        return CliffordElement(self.dim, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if isinstance(other, CliffordElement):
            return self.dim == other.dim and self.terms == other.terms
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def parity(self):
        pars = {bin(m).count("1") & 1 for m in self.terms}
        if len(pars) > 1:
            raise ValueError("mixed parity")
        return pars.pop() if pars else None

    # -- printing -------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (bin(m).count("1"), m)):
            idx = [str(i + 1) for i in range(self.dim) if mask & (1 << i)]
            blade = "1" if not idx else "e{" + ",".join(idx) + "}"
            parts.append(f"{self.terms[mask]} * {blade}" if idx else str(self.terms[mask]))
        return " + ".join(parts)

    __repr__ = __str__


def _cmul(a, b):
    if isinstance(a, FormElement) and not isinstance(b, FormElement):
        return a.scale(b)
    if isinstance(b, FormElement) and not isinstance(a, FormElement):
        return b.scale(a)
    return a * b


# -- quantization map and symbols -------------------------------------------------


def quantize(omega, dim=None):
    """Linear map sending a wedge monomial of distinct degree-one generators
    to the Clifford product of the same generators."""
    table = omega.table
    if dim is None:
        dim = sum(1 for n in table.names if n != "sigma")
    out = CliffordElement.zero(dim)
    acc = {}
    for mono, coeff in omega.terms.items():
        if SIGMA_ID in mono:
            raise ValueError("cannot quantize an element containing sigma")
        mask = 0
        for g in mono:
            if table.degree_of(g) != 1:
                raise ValueError("quantization needs degree-one generators only")
            bit = 1 << (g - 1)
            if mask & bit:
                raise ValueError("repeated generator in monomial")
            mask |= bit
        acc[mask] = acc.get(mask, 0) + coeff
    return CliffordElement(dim, acc) + out


def symbol(a, k=None, table=None):
    """Clifford symbol: inverse image under quantization.

    With ``k`` given, returns only the k-form component; otherwise the full
    symbol.  Components above the Clifford order vanish.
    """
    if table is None:
        table = exterior_table(a.dim)
    out = table.zero()
    for mask, coeff in a.terms.items():
        size = bin(mask).count("1")
        if k is not None and size != k:
            continue
        mono = tuple(i + 1 for i in range(a.dim) if mask & (1 << i))
        out += FormElement(table, {mono: QC_ONE}).scale(coeff)
    return out


def clifford_mul(a, b):
    return a * b


def berezin_str(a):
    """Berezin supertrace: (2/i)^(d/2) times the top-subset coefficient."""
    if a.dim % 2:
        raise ValueError("supertrace needs even dimension")
    top = (1 << a.dim) - 1
    coeff = a.terms.get(top, QC_ZERO)
    scale = two_over_i_pow(a.dim)
    if isinstance(coeff, FormElement):
        return coeff.scale(scale)
    return scale * coeff


# -- matrix representation (cross-check oracle) ----------------------------------------


@lru_cache(maxsize=None)
def spinor_representation(d):
    """Gamma matrices with gamma_i^2 = -1 and the grading operator.

    Returns (gammas, grading) with grading chosen so that the matrix
    supertrace tr(grading @ rho(e_1...e_d)) equals (2/i)^(d/2).
    """
    if d % 2:
        raise ValueError("even dimension required")
    m = d // 2
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def kron_chain(mats):
        out = np.array([[1.0 + 0j]])
        for M in mats:
            out = np.kron(out, M)
        return out

    hermitian = []
    for k in range(1, m + 1):
        pre = [s3] * (k - 1)
        post = [eye] * (m - k)
        hermitian.append(kron_chain(pre + [s1] + post))
        hermitian.append(kron_chain(pre + [s2] + post))
    gammas = [1j * h for h in hermitian]
    grading = (1j) ** m * np.linalg.multi_dot(gammas) if len(gammas) > 1 else 1j * gammas[0]
    grading = np.round(grading.real, 12) + 1j * np.round(grading.imag, 12)
    return tuple(gammas), grading


def represent(a, rep=None):
    """Matrix image of a Clifford element with scalar coefficients."""
    gammas, _ = rep or spinor_representation(a.dim)
    n = gammas[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    for mask, coeff in a.terms.items():
        if isinstance(coeff, FormElement):
            raise TypeError("matrix representation needs scalar coefficients")
        M = np.eye(n, dtype=complex)
        for i in range(a.dim):
            if mask & (1 << i):
                M = M @ gammas[i]
        out += complex(coeff) * M
    return out
