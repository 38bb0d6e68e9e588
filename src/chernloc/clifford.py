"""Clifford algebra Cl(R^d) with quantization map and Berezin supertrace.

The generating relation is ``c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij``,
so ``c(v)^2 = -|v|^2``.  The quantization map sends a wedge monomial of
distinct degree-one generators to the Clifford product of the same
generators; its inverse is the (full) Clifford symbol.  The supertrace picks
out the top coefficient with normalization (2/i)^(d/2), which is pinned by
the matrix representation returned from :func:`spinor_representation` and,
further downstream, by the flat-torus convergence checks.

Coefficients are scalars only: exact ``QC`` or float ``complex``.  Basis
blades are bitmasks, and the sign of a blade product is a popcount (the
bitmap rule of Dorst, Fontijne and Mann, *Geometric Algebra for Computer
Science*, ch. 19).
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .multiform import SIGMA_ID, FormElement, GeneratorTable
from .scalars import (QC_ONE, QC_ZERO, TermMap, _add_term, coerce, iszero,
                      two_over_i_pow)


@lru_cache(maxsize=None)
def exterior_table(d):
    """The exterior algebra model on R^d: generators e1..ed of degree one."""
    table = GeneratorTable(d if d % 2 == 0 else d + 1)
    for i in range(1, d + 1):
        table.add_generator(f"e{i}", 1)
    return table


def blade_product(a, b):
    """Product of basis blades: (a ^ b, sign) under e_i^2 = -1, the sign
    counting shared generators and pairs with a's generator above b's."""
    swaps = (a & b).bit_count()
    above = a >> 1
    while above:
        swaps += (above & b).bit_count()
        above >>= 1
    return a ^ b, -1 if swaps & 1 else 1


class CliffordElement(TermMap):
    """Sparse Clifford algebra element keyed by basis-subset bitmasks."""

    __slots__ = ("dim", "terms")
    _CONTEXT = "dimensions"

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        self.terms = {}
        for mask, c in (terms or {}).items():
            c = coerce(c)
            if not iszero(c):
                self.terms[int(mask)] = c

    @classmethod
    def _wrap(cls, dim, terms):
        """Wrap ``terms`` that hold no zero coefficient, without re-filtering."""
        out = cls.__new__(cls)
        out.dim = dim
        out.terms = terms
        return out

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
    def from_subset(cls, dim, indices):
        mask = 0
        for i in indices:
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError("repeated index in blade")
            mask |= bit
        return cls(dim, {mask: QC_ONE})

    def order(self):
        """Clifford order: the largest populated subset size (-1 if zero)."""
        if not self.terms:
            return -1
        return max(m.bit_count() for m in self.terms)

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mask, sign = blade_product(ma, mb)
                c = ca * cb
                _add_term(out, mask, c if sign > 0 else -c)
        return CliffordElement._wrap(self.dim, out)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __str__(self):
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            idx = ",".join(str(i + 1) for i in range(self.dim) if mask >> i & 1)
            parts.append(f"{self.terms[mask]} * e{{{idx}}}" if idx else str(self.terms[mask]))
        return " + ".join(parts) or "0"

    __repr__ = __str__


# the dimension is the TermMap context, read straight from its slot
CliffordElement.context = CliffordElement.dim


# -- quantization map and symbols -------------------------------------------------


def quantize(omega):
    """Linear map sending a wedge monomial of distinct degree-one generators
    to the Clifford product of the same generators.  The table must hold
    degree-one generators only: generator k is the Clifford generator e_k."""
    table = omega.table
    dim = len(table.names) - 1
    if any(table.degree_of(g) != 1 for g in range(1, dim + 1)):
        raise ValueError("quantization needs a table of degree-one generators only")
    masks = {}
    for mono, coeff in omega.terms.items():
        if SIGMA_ID in mono:
            raise ValueError("cannot quantize an element containing sigma")
        mask = 0
        for g in mono:
            bit = 1 << (g - 1)
            if mask & bit:
                raise ValueError("repeated generator in monomial")
            mask |= bit
        masks[mask] = coeff
    return CliffordElement(dim, masks)


def symbol(a, k=None):
    """Clifford symbol: inverse image under quantization.

    With ``k`` given, returns only the k-form component; otherwise the full
    symbol.  Components above the Clifford order vanish.
    """
    bits = range(a.dim)
    return FormElement._wrap(exterior_table(a.dim), {
        tuple(i + 1 for i in bits if mask >> i & 1): coeff
        for mask, coeff in a.terms.items()
        if k is None or mask.bit_count() == k})


def berezin_str(a):
    """Berezin supertrace: (2/i)^(d/2) times the top-subset coefficient."""
    if a.dim % 2:
        raise ValueError("supertrace needs even dimension")
    top = (1 << a.dim) - 1
    return two_over_i_pow(a.dim) * a.terms.get(top, QC_ZERO)


# -- spinor representation (the torus model's gammas) -----------------------------------


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
    eye, one = np.eye(2, dtype=complex), np.array([[1.0 + 0j]])
    gammas = [1j * reduce(np.kron, [s3] * (k - 1) + [s] + [eye] * (m - k), one)
              for k in range(1, m + 1) for s in (s1, s2)]
    grading = (1j) ** m * np.linalg.multi_dot(gammas) if len(gammas) > 1 else 1j * gammas[0]
    grading = np.round(grading.real, 12) + 1j * np.round(grading.imag, 12)
    return tuple(gammas), grading

