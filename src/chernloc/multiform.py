"""Finitely generated graded-commutative form algebras.

A :class:`GeneratorTable` declares named generators with integer degrees and
assigned differentials, plus an ambient top degree ``d`` above which products
are silently truncated (modelling the vanishing of forms beyond the dimension
of the underlying space).  Every table carries a reserved degree (-1)
generator ``sigma`` with ``sigma^2 = 0``; elements split as
``theta = theta' + sigma * theta''``.

Elements are sparse :class:`FormElement` values: maps from canonically sorted
monomials to coefficients.  Products follow the Koszul rule
``x*y = (-1)^{|x||y|} y*x``; the differential of the extended algebra is
``d_T = d - iota`` with ``iota(theta' + sigma*theta'') = theta''``.
"""

from __future__ import annotations

import math
import re as _re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import QC, QC_ONE, QC_ZERO, coerce, iszero

SIGMA = "sigma"
SIGMA_ID = 0


class TableMismatchError(ValueError):
    """Raised when elements over different generator tables are combined."""


class GeneratorTable:
    """Generators, degrees, differentials and the ambient top degree.

    The table keeps three memos, each filled on first use with immutable
    tuples, so a fresh table costs nothing:

    * the signed product of an ordered pair of monomials
      (:meth:`mono_product`, a ``(monomial, sign)`` pair), read by every
      form product through :func:`sum_of_products` and by ``barcomplex.b1``;
    * the terms of ``d`` of a monomial (:meth:`mono_d`, a tuple of
      ``(monomial, coefficient)`` pairs), read by :meth:`FormElement.d` and
      :meth:`mono_d_T`;
    * the terms of ``d_T = d - iota`` of a monomial (:meth:`mono_d_T`),
      read by ``barcomplex.b0``.

    All three are cleared by :meth:`add_generator` and
    :meth:`set_differential`; their size is bounded by the table's finite
    set of monomials and of pairs of monomials.
    """

    def __init__(self, top_degree, generators=()):
        top_degree = int(top_degree)
        if top_degree <= 0 or top_degree % 2:
            raise ValueError("top degree must be a positive even integer")
        self.top_degree = top_degree
        self._names = [SIGMA]
        self._degrees = [-1]
        self._ids = {SIGMA: SIGMA_ID}
        self._diffs = {}
        self._product_memo = {}
        self._d_memo = {}
        self._d_T_memo = {}
        for name, deg in generators:
            self.add_generator(name, deg)

    def _clear_memos(self):
        self._product_memo.clear()
        self._d_memo.clear()
        self._d_T_memo.clear()

    # -- construction -------------------------------------------------
    def add_generator(self, name, degree):
        if name in self._ids:
            raise ValueError(f"generator {name!r} already defined")
        if not _re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ValueError(f"bad generator name {name!r}")
        degree = int(degree)
        if degree < 1:
            raise ValueError("non-sigma generators must have degree >= 1")
        gid = len(self._names)
        self._names.append(name)
        self._degrees.append(degree)
        self._ids[name] = gid
        self._clear_memos()
        return self.gen(name)

    def set_differential(self, name, form):
        gid = self._ids[name]
        if gid == SIGMA_ID:
            raise ValueError("sigma has no assignable differential")
        if isinstance(form, str):
            form = self.parse(form)
        if not isinstance(form, FormElement) or form.table is not self:
            raise TableMismatchError("differential must live in the same table")
        self._diffs[gid] = form
        self._clear_memos()

    @classmethod
    def build(cls, top_degree, entries):
        """Create a table from (name, degree, differential-or-None) triples.

        Differentials may be expression strings; they are resolved after all
        generators exist, so forward references are fine.
        """
        table = cls(top_degree)
        for name, degree, _ in entries:
            table.add_generator(name, degree)
        for name, _, diff in entries:
            if diff not in (None, 0, "0", ""):
                table.set_differential(name, diff)
        return table

    # -- lookup ---------------------------------------------------------
    @property
    def names(self):
        return tuple(self._names)

    def degree_of(self, gid):
        return self._degrees[gid]

    def differential(self, gid):
        form = self._diffs.get(gid)
        return form if form is not None else self.zero()

    def gen(self, name):
        gid = self._ids[name]
        return FormElement(self, {(gid,): QC_ONE})

    def sigma(self):
        return FormElement(self, {(SIGMA_ID,): QC_ONE})

    def zero(self):
        return FormElement(self, {})

    def one(self):
        return FormElement(self, {(): QC_ONE})

    def scalar(self, c):
        c = coerce(c)
        return FormElement(self, {} if iszero(c) else {(): c})

    # -- monomial helpers -------------------------------------------------
    def mono_degree(self, mono):
        return sum(self._degrees[g] for g in mono)

    def mono_nonsigma_degree(self, mono):
        return sum(self._degrees[g] for g in mono if g != SIGMA_ID)

    def mono_str(self, mono):
        if not mono:
            return "1"
        parts = []
        i = 0
        while i < len(mono):
            j = i
            while j < len(mono) and mono[j] == mono[i]:
                j += 1
            name = self._names[mono[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return " ".join(parts)

    def mul_monomials(self, ma, mb):
        """Product of two sorted monomials: (monomial, sign) or (None, 0)."""
        sign = 1
        if ma and mb:
            odd_a = [g for g in ma if self._degrees[g] & 1]
            for g in mb:
                if self._degrees[g] & 1:
                    crossings = len(odd_a) - bisect_right(odd_a, g)
                    if crossings & 1:
                        sign = -sign
        merged = tuple(sorted(ma + mb))
        prev = -1
        nonsigma = 0
        for g in merged:
            deg = self._degrees[g]
            if deg & 1 and g == prev:
                return None, 0
            prev = g
            if g != SIGMA_ID:
                nonsigma += deg
        if nonsigma > self.top_degree:
            return None, 0
        return merged, sign

    def mono_d(self, mono):
        """Terms of d of a monomial, as a tuple of (monomial, coefficient)
        pairs: the Leibniz sum of (-1)^(prefix parity) prefix * d(g) * suffix."""
        terms = self._d_memo.get(mono)
        if terms is None:
            out = {}
            parity = 0
            for pos, g in enumerate(mono):
                dg = self._diffs.get(g)
                if dg is not None:
                    left = {}
                    _mul_into(left, self, {mono[:pos]: QC_ONE}, dg.terms)
                    _mul_into(out, self, left,
                              {mono[pos + 1:]: -QC_ONE if parity else QC_ONE})
                parity ^= self._degrees[g] & 1
            terms = self._d_memo[mono] = tuple(out.items())
        return terms

    def mono_d_T(self, mono):
        """Terms of d_T = d - iota of a monomial, as a tuple of (monomial,
        coefficient) pairs."""
        terms = self._d_T_memo.get(mono)
        if terms is None:
            out = dict(self.mono_d(mono))
            if mono and mono[0] == SIGMA_ID:
                _add_term(out, mono[1:], -QC_ONE)
            terms = self._d_T_memo[mono] = tuple(out.items())
        return terms

    def mono_product(self, ma, mb):
        """Memoized :meth:`mul_monomials`: (monomial, sign) or (None, 0)."""
        key = (ma, mb)
        product = self._product_memo.get(key)
        if product is None:
            product = self._product_memo[key] = self.mul_monomials(ma, mb)
        return product

    # -- parsing / serialization ----------------------------------------
    def parse(self, text):
        return parse_form(self, text)

    @classmethod
    def from_text(cls, document):
        """Load a table from a plain-text description.

        One directive per line; ``#`` starts a comment.  The first data line
        is ``d <top-degree>``; each following line is
        ``<name> <degree> <differential-expression-or-0>``.
        """
        top = None
        entries = []
        for raw in document.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if top is None:
                if parts[0] != "d" or len(parts) != 2:
                    raise ValueError("first directive must be 'd <top-degree>'")
                top = int(parts[1])
                continue
            if len(parts) < 2:
                raise ValueError(f"bad generator line: {raw!r}")
            name, deg = parts[0], int(parts[1])
            diff = parts[2] if len(parts) == 3 else "0"
            entries.append((name, deg, diff))
        if top is None:
            raise ValueError("empty table document")
        return cls.build(top, entries)

    def to_text(self):
        lines = [f"d {self.top_degree}"]
        for gid in range(1, len(self._names)):
            diff = self._diffs.get(gid)
            dstr = "0" if diff is None or diff.is_zero() else diff.canonical_str()
            lines.append(f"{self._names[gid]} {self._degrees[gid]} {dstr}")
        return "\n".join(lines) + "\n"


class FormElement:
    """Sparse element of a graded-commutative form algebra."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table, terms):
        self.table = table
        self.terms = {m: c for m, c in terms.items() if not iszero(c)}
        self._hash = None

    @classmethod
    def _nonzero(cls, table, terms):
        """Wrap ``terms`` that hold no zero coefficient, without re-filtering."""
        out = cls.__new__(cls)
        out.table = table
        out.terms = terms
        out._hash = None
        return out

    # -- basics -----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), QC_ZERO)

    def constant_term(self):
        return self.terms.get((), QC_ZERO)

    def __iter__(self):
        return iter(self.terms.items())

    def _check(self, other):
        if self.table is not other.table:
            raise TableMismatchError("elements over different generator tables")

    # -- linear structure ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, FormElement):
            self._check(other)
            out = dict(self.terms)
            for m, c in other.terms.items():
                s = out.get(m, QC_ZERO) + c
                if iszero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
            return FormElement._nonzero(self.table, out)
        if other == 0:
            return self
        return self + self.table.scalar(other)

    __radd__ = __add__

    def __neg__(self):
        return FormElement._nonzero(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, FormElement)
                       else self.table.scalar(other).__neg__())

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = coerce(c)
        if iszero(c):
            return self.table.zero()
        return FormElement(self.table, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FormElement):
            self._check(other)
            out = {}
            _mul_into(out, self.table, self.terms, other.terms)
            return FormElement._nonzero(self.table, out)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything by centrality of the coefficient ring
        return self.scale(other)

    # -- grading -------------------------------------------------------------
    def homogeneous_parts(self):
        """Decomposition by integer degree (sigma counts -1)."""
        table = self.table
        parts = {}
        for m, c in self.terms.items():
            parts.setdefault(table.mono_degree(m), {})[m] = c
        return {deg: FormElement(table, t) for deg, t in sorted(parts.items())}

    def degree(self):
        degs = {self.table.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not degree-homogeneous")
        return degs.pop()

    def parity(self):
        pars = {self.table.mono_degree(m) & 1 for m in self.terms}
        if not pars:
            return None
        if len(pars) > 1:
            raise ValueError("element has mixed parity")
        return pars.pop()

    def top_component(self):
        """The sigma-free component of top degree (the integrand of the
        fiberwise integral)."""
        table = self.table
        top = table.top_degree
        out = {m: c for m, c in self.terms.items()
               if SIGMA_ID not in m and table.mono_degree(m) == top}
        return FormElement(table, out)

    # -- sigma structure -------------------------------------------------------
    def split_sigma(self):
        """theta -> (theta', theta'') with theta = theta' + sigma*theta''."""
        prime, second = {}, {}
        for m, c in self.terms.items():
            if m and m[0] == SIGMA_ID:
                second[m[1:]] = c
            else:
                prime[m] = c
        return FormElement(self.table, prime), FormElement(self.table, second)

    def iota(self):
        return self.split_sigma()[1]

    # -- differentials ------------------------------------------------------------
    def d(self):
        """Extension of the generator differentials as an odd derivation."""
        table = self.table
        out = {}
        for mono, coeff in self.terms.items():
            for m, c in table.mono_d(mono):
                _add_term(out, m, coeff * c)
        return FormElement._nonzero(table, out)

    def d_T(self):
        return self.d() - self.iota()

    # -- hashing / equality ---------------------------------------------------------
    def _key(self):
        return tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))

    def __eq__(self, other):
        if isinstance(other, FormElement):
            return self.table is other.table and self.terms == other.terms
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    # -- printing -------------------------------------------------------------------
    def canonical_str(self):
        if not self.terms:
            return "0"
        table = self.table
        keyed = sorted(self.terms.items(),
                       key=lambda kv: (table.mono_degree(kv[0]), kv[0]))
        parts = []
        for m, c in keyed:
            cs = str(c)
            parts.append(cs if not m else f"{cs} * {table.mono_str(m)}")
        return " + ".join(parts)

    def __str__(self):
        return self.canonical_str()

    def __repr__(self):
        return f"<form {self.canonical_str()}>"


@dataclass
class DgaReport:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_dga(table):
    """Verify degree bookkeeping and d^2 = 0 on all generators."""
    failures = []
    for gid in range(len(table.names)):
        name = table.names[gid]
        dg = table.differential(gid)
        if gid == SIGMA_ID:
            if not dg.is_zero():
                failures.append(f"{name}: sigma must be closed")
            continue
        if table.degree_of(gid) < 1:
            failures.append(f"{name}: degree must be >= 1")
        if dg.is_zero():
            continue
        if any(SIGMA_ID in m for m in dg.terms):
            failures.append(f"{name}: differential must be sigma-free")
            continue
        try:
            deg = dg.degree()
        except ValueError:
            failures.append(f"{name}: differential is not homogeneous")
            continue
        if deg != table.degree_of(gid) + 1:
            failures.append(
                f"{name}: differential has degree {deg}, expected "
                f"{table.degree_of(gid) + 1}")
        if not dg.d().is_zero():
            failures.append(f"{name}: d^2 != 0")
    return DgaReport(not failures, failures)


# -- the product kernel ---------------------------------------------------------------


def _add_term(out, mono, c):
    """Add ``c`` to the coefficient of ``mono`` in ``out``, dropping it when
    the sum cancels."""
    s = out.get(mono, QC_ZERO) + c
    if iszero(s):
        out.pop(mono, None)
    else:
        out[mono] = s


def _mul_into(out, table, ta, tb):
    """Add the product of the term maps ``ta`` and ``tb`` into the term map
    ``out``; monomial products are read through the table's product memo."""
    memo = table._product_memo
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            product = memo.get((ma, mb))
            if product is None:
                product = table.mono_product(ma, mb)
            mono, sign = product
            if mono is None:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            # _add_term, inlined: this is the innermost loop of every product
            s = out.get(mono, QC_ZERO) + c
            if iszero(s):
                out.pop(mono, None)
            else:
                out[mono] = s


def sum_of_products(table, pairs):
    """sum a * b over the (a, b) pairs of FormElements over ``table``,
    accumulated in one term map."""
    out = {}
    for a, b in pairs:
        if a.table is not table or b.table is not table:
            raise TableMismatchError("elements over different generator tables")
        _mul_into(out, table, a.terms, b.terms)
    return FormElement._nonzero(table, out)


# -- series utilities on nilpotent elements ----------------------------------------

def _series(u, coeff, out):
    """out + sum_{k >= 1} coeff(k) u^k, walked until the power u^k vanishes
    (finite when u has no constant term)."""
    power = u.table.one()
    k = 1
    while True:
        power = power * u
        if power.is_zero():
            return out
        out += power.scale(coeff(k))
        k += 1


def exp_nilpotent(u):
    """exp(u) for a form with zero constant term (finite by nilpotency)."""
    if not iszero(u.constant_term()):
        raise ValueError("exp requires a nilpotent element (no constant term)")
    return _series(u, lambda k: Fraction(1, math.factorial(k)), u.table.one())


def log_one_plus(u):
    """log(1 + u) for a form u with zero constant term."""
    if not iszero(u.constant_term()):
        raise ValueError("log(1+u) requires u without constant term")
    return _series(u, lambda k: Fraction(1 if k % 2 else -1, k), u.table.zero())


def inverse_unit(f):
    """Inverse of a form whose constant term is invertible: with
    f = c0 (1 + u), f^-1 = c0^-1 sum (-u)^k."""
    c0 = f.constant_term()
    if iszero(c0):
        raise ValueError("element has no constant term; not invertible")
    c0 = coerce(c0)
    inv0 = QC(1) / c0 if isinstance(c0, QC) else 1.0 / c0
    # f/c0 - 1 as f/c0 without its constant term, so no rounded constant stays
    u = FormElement(f.table, {m: inv0 * c for m, c in f.terms.items() if m})
    return _series(u, lambda k: (-1) ** k, f.table.one()).scale(inv0)


# -- expression parser ---------------------------------------------------------------

# a decimal point or an exponent makes a literal inexact
_INEXACT_LITERAL = _re.compile(r"[.eE]")
# the end of a numeric literal awaiting its exponent's sign, as in "1e-3"
_EXPONENT_OPEN = _re.compile(r"(?<![A-Za-z_0-9.])(?:\d+\.?\d*|\.\d+)[eE]$")


def _parse_coeff(text):
    """Parse 'a', 'a/b', 'ai', 'i', or '(a+bi)' into an exact/inexact scalar;
    a literal with a decimal point or an exponent is inexact."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].replace(" ", "")
        m = _re.fullmatch(
            r"(?P<re>[+-]?\d+(?:/\d+)?(?:\.\d+)?(?:[eE][+-]?\d+)?)"
            r"(?P<sign>[+-])(?P<im>\d+(?:/\d+)?(?:\.\d+)?(?:[eE][+-]?\d+)?)?i",
            inner)
        if not m:
            raise ValueError(f"bad complex coefficient {text!r}")
        re_part = m.group("re")
        im_part = m.group("im") or "1"
        if m.group("sign") == "-":
            im_part = "-" + im_part
        if _INEXACT_LITERAL.search(re_part + im_part):
            return complex(float(Fraction(re_part)), float(Fraction(im_part)))
        return QC(Fraction(re_part), Fraction(im_part))
    if text == "i":
        return QC(0, 1)
    if text.endswith("i"):
        body = text[:-1]
        if _INEXACT_LITERAL.search(body):
            return complex(0, float(body))
        return QC(0, Fraction(body))
    if _INEXACT_LITERAL.search(text):
        return complex(float(text))
    return QC(Fraction(text))


def parse_form(table, text):
    """Parse the canonical text format: sums of 'coeff * gen^k gen2 ...'.

    Multiplication may be written with '*' or juxtaposition by spaces.
    """
    text = text.strip()
    if text in ("", "0"):
        return table.zero()
    result = table.zero()
    # split into signed terms at top level (no parentheses nesting except coeffs)
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and _EXPONENT_OPEN.search(cur):
            cur += ch
        elif ch in "+-" and depth == 0 and cur.strip():
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and depth == 0 and not cur.strip():
            sign = sign if ch == "+" else -sign
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur))
    for sgn, term in terms:
        factors = [f for chunk in term.split("*") for f in chunk.split()]
        value = table.one().scale(sgn)
        for fac in factors:
            fac = fac.strip()
            if not fac:
                continue
            m = _re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", fac)
            if m and m.group(1) in table._ids:
                g = table.gen(m.group(1))
                for _ in range(int(m.group(2) or 1)):
                    value = value * g
            elif m and fac != "i":
                raise ValueError(f"unknown generator {m.group(1)!r}")
            else:
                try:
                    coeff = _parse_coeff(fac)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {fac!r}") from None
                value = value.scale(coeff)
        result += value
    return result
