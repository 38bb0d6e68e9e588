"""Matrices with FormElement entries.

Used for curvature matrices (even entries, which commute) and for
matrix-valued forms such as idempotents over a form algebra.  Entries are
kept as a tuple of row tuples; all operations return new matrices.  The
one mutable slot, ``_memo``, holds exact results derived from the matrix
(``fredholm`` keeps an idempotent's curvature there); it lives and dies
with the matrix and takes no part in equality or hashing.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .multiform import FormElement, _mul_into
from .scalars import _add_term, coerce


class FormMatrix:
    __slots__ = ("table", "rows", "shape", "_memo")

    def __init__(self, table, rows):
        self.table = table
        self._memo = None
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        m = len(self.rows[0]) if n else 0
        for r in self.rows:
            if len(r) != m:
                raise ValueError("ragged matrix")
            for e in r:
                if not isinstance(e, FormElement) or e.table is not table:
                    raise ValueError("entries must be FormElements over the table")
        self.shape = (n, m)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, table, n, m=None):
        m = n if m is None else m
        z = table.zero()
        return cls(table, [[z] * m for _ in range(n)])

    @classmethod
    def identity(cls, table, n):
        z = table.zero()
        s = table.one()
        return cls(table, [[s if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalars(cls, table, rows):
        return cls(table, [[table.scalar(x) for x in r] for r in rows])

    @classmethod
    def parse(cls, table, rows):
        """Rows of expression strings (or numbers)."""
        out = []
        for r in rows:
            row = []
            for x in r:
                if isinstance(x, str):
                    row.append(table.parse(x))
                elif isinstance(x, FormElement):
                    row.append(x)
                else:
                    row.append(table.scalar(x))
            out.append(row)
        return cls(table, out)

    # -- access ------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def is_antisymmetric(self):
        n, m = self.shape
        if n != m:
            return False
        return all((self.rows[i][j] + self.rows[j][i]).is_zero()
                   for i in range(n) for j in range(n))

    # -- algebra --------------------------------------------------------------
    def __add__(self, other):
        self._compat(other)
        return FormMatrix(self.table,
                          [[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormMatrix(self.table, [[-e for e in r] for r in self.rows])

    def scale(self, c):
        c = coerce(c)
        return FormMatrix(self.table, [[e.scale(c) for e in r] for r in self.rows])

    def scale_form(self, f):
        """Left multiplication of every entry by a form (used for sigma*p)."""
        return FormMatrix(self.table, [[f * e for e in r] for r in self.rows])

    def __matmul__(self, other):
        """Each entry accumulated in one term map over the pairs of nonzero
        entries only."""
        self._compat(other, mul=True)
        table = self.table
        cols = [{k: e.terms for k, e in enumerate(col) if e.terms}
                for col in zip(*other.rows)]
        out_rows = []
        for row in self.rows:
            pairs = [(k, e.terms) for k, e in enumerate(row) if e.terms]
            out_row = []
            for col in cols:
                out = {}
                for k, ta in pairs:
                    tb = col.get(k)
                    if tb is not None:
                        _mul_into(out, table, ta, tb)
                out_row.append(FormElement._wrap(table, out))
            out_rows.append(out_row)
        return FormMatrix(table, out_rows)

    def symmetric_product(self, other):
        """``self @ other`` for a product known to be symmetric: the entries
        (i, j) with i <= j are formed as in :meth:`__matmul__`, and each is
        also stored at (j, i).

        That holds when the entries are even forms (which commute) and the
        product is A^T A, or M M with M antisymmetric; it is not checked.
        """
        self._compat(other, mul=True)
        if self.shape[0] != other.shape[1]:
            raise ValueError("a symmetric product must be square")
        table = self.table
        cols = [{k: e.terms for k, e in enumerate(col) if e.terms}
                for col in zip(*other.rows)]
        n = len(cols)
        out_rows = [[None] * n for _ in range(n)]
        for i, row in enumerate(self.rows):
            pairs = [(k, e.terms) for k, e in enumerate(row) if e.terms]
            for j in range(i, n):
                col = cols[j]
                out = {}
                for k, ta in pairs:
                    tb = col.get(k)
                    if tb is not None:
                        _mul_into(out, table, ta, tb)
                out_rows[i][j] = out_rows[j][i] = FormElement._wrap(table, out)
        return FormMatrix(table, out_rows)

    def transpose(self):
        n, m = self.shape
        return FormMatrix(self.table,
                          [[self.rows[i][j] for i in range(n)] for j in range(m)])

    def trace(self):
        n, m = self.shape
        if n != m:
            raise ValueError("trace of a non-square matrix")
        acc = self.table.zero()
        for i in range(n):
            acc = acc + self.rows[i][i]
        return acc

    def map_entries(self, fn):
        return FormMatrix(self.table, [[fn(e) for e in r] for r in self.rows])

    def d(self):
        return self.map_entries(lambda e: e.d())

    def split_sigma(self):
        primes, seconds = [], []
        for r in self.rows:
            rp, rs = [], []
            for e in r:
                p, s = e.split_sigma()
                rp.append(p)
                rs.append(s)
            primes.append(rp)
            seconds.append(rs)
        return FormMatrix(self.table, primes), FormMatrix(self.table, seconds)

    def homogeneous_parts(self):
        """Decompose entrywise by integer degree into degree -> matrix."""
        degs = set()
        for r in self.rows:
            for e in r:
                degs.update(e.homogeneous_parts())
        out = {}
        for deg in sorted(degs):
            out[deg] = self.map_entries(
                lambda e, d=deg: e.homogeneous_parts().get(d, self.table.zero()))
        return out

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return self.table is other.table and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.table), self.rows))

    def _compat(self, other, mul=False):
        if not isinstance(other, FormMatrix) or other.table is not self.table:
            raise ValueError("incompatible matrices")
        if mul:
            if self.shape[1] != other.shape[0]:
                raise ValueError("shape mismatch in product")
        elif self.shape != other.shape:
            raise ValueError("shape mismatch")

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(e.canonical_str() for e in r) for r in self.rows) + "]"

    __repr__ = __str__


def mat_powers(mat):
    """[I, mat, mat^2, ...] up to the last nonzero power.

    The entries of ``mat`` must have no constant term, so the list ends by
    nilpotency; an entry with one raises ValueError.  With ``low`` the least
    non-sigma degree of the monomials of ``mat``, every monomial of mat^k
    has non-sigma degree at least low * k, so the list stops before that
    exceeds the top degree without forming the zero power.
    """
    table = mat.table
    low = None
    for i, row in enumerate(mat.rows):
        for j, e in enumerate(row):
            if () in e.terms:
                raise ValueError(f"matrix entry ({i}, {j}) = {e} has a constant "
                                 "term, so its powers do not end")
            for mono in e.terms:
                deg = table.mono_nonsigma_degree(mono)
                if low is None or deg < low:
                    low = deg
    powers = [FormMatrix.identity(table, mat.shape[0])]
    if low is None:
        return powers
    powers.append(mat)
    # a sigma-only monomial has non-sigma degree 0; sigma^2 = 0 ends those
    while not low or low * len(powers) <= table.top_degree:
        power = powers[-1] @ mat
        if power.is_zero():
            break
        powers.append(power)
    return powers


def power_sum(powers, coeffs):
    """sum_k coeffs[k] * powers[k] for powers = [I, M, M^2, ...], each entry
    accumulated in one term map of scaled coefficients."""
    table = powers[0].table
    n = powers[0].shape[0]
    scaled = [(coerce(c), power.rows) for power, c in zip(powers, coeffs) if c]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            out = {}
            for c, prows in scaled:
                for mono, v in prows[i][j].terms.items():
                    _add_term(out, mono, c * v)
            row.append(FormElement._wrap(table, out))
        rows.append(row)
    return FormMatrix(table, rows)


def mat_exp_nilpotent(mat):
    """exp of a matrix whose entries all have positive form degree."""
    powers = mat_powers(mat)
    return power_sum(powers, [Fraction(1, factorial(k)) for k in range(len(powers))])


def det_leibniz(mat):
    """Determinant over the commutative subalgebra spanned by the entries.

    Only valid when all entries commute (even forms), which holds for the
    quadratic-form and curvature matrices used here.
    """
    from itertools import permutations
    n, m = mat.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    table = mat.table
    acc = table.zero()
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        term = table.one()
        for i in range(n):
            term = term * mat.rows[i][perm[i]]
            if term.is_zero():
                break
        acc = acc + (term if sign > 0 else -term)
    return acc


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
