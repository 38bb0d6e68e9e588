"""Finitely generated graded-commutative form algebras.

A :class:`GeneratorTable` declares named generators with integer degrees and
assigned differentials, plus an ambient top degree ``d`` above which products
are silently truncated (modelling the vanishing of forms beyond the dimension
of the underlying space).  Every table carries a reserved degree (-1)
generator ``sigma`` with ``sigma^2 = 0``; elements split as
``theta = theta' + sigma * theta''``.

Elements are sparse :class:`FormElement` values: maps from canonically sorted
monomials to coefficients, with the linear structure of ``scalars.TermMap``
(importable from here too, with ``_add_term`` and ``TableMismatchError``),
which bar chains, Clifford elements and Laurent polynomials share; a scalar
operand of a sum is a multiple of 1.  Products follow the Koszul rule
``x*y = (-1)^{|x||y|} y*x``; the differential of the extended algebra is
``d_T = d - iota`` with ``iota(theta' + sigma*theta'') = theta''``.

Form text is read by :func:`parse_form` in one pass over one token regex; it
reads back what :meth:`FormElement.canonical_str` prints, a float coefficient
(``(0.5+0j)``, printed the Python way) included.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re as _re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import (QC, QC_I, QC_MINUS_ONE, QC_ONE, QC_ZERO, TableMismatchError,
                      TermMap, _add_term, coerce, iszero)

SIGMA = "sigma"
SIGMA_ID = 0
# a degree in a table document: ASCII digits with an optional sign
_DECIMAL = _re.compile(r"[+-]?[0-9]+")


def _integer(value, what):
    """``value`` as an int; a float or bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _unit(c):
    """``c``, or the shared ``QC_ONE``/``QC_MINUS_ONE`` when it is a ``QC``
    equal to one of them (a float equal to +-1 is kept: it is inexact)."""
    if type(c) is QC and c.den == 1 and not c.im_num:
        if c.re_num == 1:
            return QC_ONE
        if c.re_num == -1:
            return QC_MINUS_ONE
    return c


class GeneratorTable:
    """Generators, degrees, differentials and the ambient top degree.

    The table keeps four memos, each filled on first use with immutable
    values, so a fresh table costs nothing:

    * the degree of a monomial (:meth:`mono_degree`), read once per slot of
      every bar word by the walks of ``barcomplex``;
    * the signed product of an ordered pair of monomials
      (:meth:`mono_product`, a ``(monomial, sign)`` pair), read by every
      form product through :func:`_mul_into` and by ``barcomplex.b1``;
    * the terms of ``d`` of a monomial (:meth:`mono_d`, a tuple of
      ``(monomial, coefficient)`` pairs), read by :meth:`FormElement.d` and
      :meth:`mono_d_T`;
    * the terms of ``d_T = d - iota`` of a monomial (:meth:`mono_d_T`),
      read by ``barcomplex.b0`` and ``barcomplex.b``, with an exact
      coefficient of +-1 stored as the shared ``QC_ONE`` or
      ``QC_MINUS_ONE``.

    The last three are cleared by :meth:`add_generator` and
    :meth:`set_differential`.  The degree memo never is: a generator's id
    and degree are fixed when it is added, so a monomial's degree never
    changes.  Each memo is bounded by the table's finite set of monomials
    and of pairs of monomials.  Each clear also bumps ``generation``, which
    stamps the exact results ``fredholm`` holds on an idempotent matrix, so
    a change to the table invalidates those too.
    """

    def __init__(self, top_degree):
        top_degree = _integer(top_degree, "top degree")
        if top_degree <= 0 or top_degree % 2:
            raise ValueError("top degree must be a positive even integer")
        self.top_degree = top_degree
        self._names = [SIGMA]
        self._degrees = [-1]
        self._ids = {SIGMA: SIGMA_ID}
        self._diffs = {}
        self._degree_memo = {}
        self._product_memo = {}
        self._d_memo = {}
        self._d_T_memo = {}
        self.generation = 0

    def _clear_memos(self):
        self._product_memo.clear()
        self._d_memo.clear()
        self._d_T_memo.clear()
        self.generation += 1

    # -- construction -------------------------------------------------
    def add_generator(self, name, degree):
        if name in self._ids:
            raise ValueError(f"generator {name!r} already defined")
        if not _re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ValueError(f"bad generator name {name!r}")
        if name == "i":
            # form text reads a bare i as the imaginary unit
            raise ValueError("generator name 'i' is the imaginary unit")
        degree = _integer(degree, f"degree of {name!r}")
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
        deg = self._degree_memo.get(mono)
        if deg is None:
            deg = self._degree_memo[mono] = sum(self._degrees[g] for g in mono)
        return deg

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
        coefficient) pairs.

        An exact coefficient equal to +-1 is stored as the shared ``QC_ONE``
        or ``QC_MINUS_ONE``, so ``barcomplex`` can tell a unit by identity
        and skip the multiply; a float coefficient is never replaced, even
        when it equals +-1.
        """
        terms = self._d_T_memo.get(mono)
        if terms is None:
            out = dict(self.mono_d(mono))
            if mono and mono[0] == SIGMA_ID:
                _add_term(out, mono[1:], QC_MINUS_ONE)
            terms = self._d_T_memo[mono] = tuple(
                (m, _unit(c)) for m, c in out.items())
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
        def integer(text, what, number):
            # int() alone would also read "1_0" and non-ASCII digits
            if not _DECIMAL.fullmatch(text):
                raise ValueError(f"line {number}: {what} must be an integer, "
                                 f"got {text!r}")
            return int(text)

        top = None
        entries = []
        for number, raw in enumerate(document.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if top is None:
                if parts[0] != "d" or len(parts) != 2:
                    raise ValueError("first directive must be 'd <top-degree>'")
                top = integer(parts[1], "top degree", number)
                continue
            if len(parts) < 2:
                raise ValueError(f"bad generator line: {raw!r}")
            name = parts[0]
            deg = integer(parts[1], f"degree of {name!r}", number)
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


class FormElement(TermMap):
    """Sparse element of a graded-commutative form algebra."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table, terms):
        self.table = table
        self.terms = {m: c for m, c in terms.items() if not iszero(c)}
        self._hash = None

    @classmethod
    def _wrap(cls, table, terms):
        """Wrap ``terms`` that hold no zero coefficient, without re-filtering."""
        out = cls.__new__(cls)
        out.table = table
        out.terms = terms
        out._hash = None
        return out

    # -- basics -----------------------------------------------------------
    def coefficient(self, mono):
        return self.terms.get(tuple(mono), QC_ZERO)

    def constant_term(self):
        return self.terms.get((), QC_ZERO)

    def _promote(self, other):
        """A scalar operand of a sum is a multiple of 1."""
        return self.table.scalar(other)

    def __mul__(self, other):
        if isinstance(other, FormElement):
            self._check(other)
            out = {}
            _mul_into(out, self.table, self.terms, other.terms)
            return FormElement._wrap(self.table, out)
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
    def _apply(self, mono_terms):
        """The linear map whose value on each monomial is ``mono_terms``."""
        out = {}
        for mono, coeff in self.terms.items():
            for m, c in mono_terms(mono):
                _add_term(out, m, coeff * c)
        return FormElement._wrap(self.table, out)

    def d(self):
        """Extension of the generator differentials as an odd derivation."""
        return self._apply(self.table.mono_d)

    def d_T(self):
        """d_T = d - iota, summed over the memoized monomial terms."""
        return self._apply(self.table.mono_d_T)

    # -- hashing --------------------------------------------------------------------
    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))
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


# the table is the TermMap context, read straight from its slot
FormElement.context = FormElement.table


@dataclass
class DgaReport:
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_dga(table):
    """Verify degree bookkeeping and d^2 = 0 on all generators."""
    failures = []
    for gid, name in enumerate(table.names[1:], 1):
        dg = table.differential(gid)
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
            s = out.get(mono)
            if s is None:
                if type(c) is QC:
                    out[mono] = c
                    continue
                s = QC_ZERO
            s = s + c
            if iszero(s):
                out.pop(mono, None)
            else:
                out[mono] = s


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

# an exact integer or a/b, or a float with a decimal point or an exponent;
# in parentheses a/b may have spaces around its slash
_NUMBER = r"\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SPACED = _NUMBER.replace("/", r"\s*/\s*")
# a number or a name ends where a space, an operator or a parenthesis begins
_END = r"(?=[\s*()+-]|$)"
# one token of form text; a parenthesized literal is a, bi, i or a+bi, with
# its sign, and an unreadable token falls through to ``bad``; ASCII only,
# since \d and \s would also match other scripts' digits and spaces
_TOKEN = _re.compile(rf"""\s*(?:
    (?P<op>[-+*])
  | \(\s*(?P<lead>[+-]?)\s*(?:(?P<a>{_SPACED})\s*
      (?:(?P<mid>[+-])\s*(?P<b>{_SPACED})?\s*(?=[ij]))?)?
      (?P<unit>(?(a)[ij]?|[ij]))\s*\)
  | (?P<number>{_NUMBER})(?P<imag>[ij])?{_END}
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\^(?P<power>\d+))?{_END}
  | (?P<bad>\([^()]*\)|[()]|[^\s*()+-]+)
)""", _re.VERBOSE | _re.ASCII)


def _literal(token, lead, a, mid, b, unit):
    """The scalar of a number or parenthesized literal: exact, unless a part
    has a decimal point or an exponent or the unit is Python's ``j``."""
    if unit and not mid:        # an imaginary part alone
        parts = "0", lead + (a or "1")
    else:
        parts = lead + a, (mid + (b or "1") if mid else "0")
    parts = ["".join(p.split()) for p in parts]     # "1 / 2" is read as 1/2
    try:
        if unit == "j" or any(ch in ".eE" for ch in "".join(parts)):
            value = complex(*(float(Fraction(p) if "/" in p else p) for p in parts))
            if cmath.isinf(value):      # float("1e400") is inf, not an error
                raise OverflowError
            return value
        return QC(*map(Fraction, parts))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None
    except OverflowError:
        raise ValueError(f"{token!r} overflows a float") from None


def parse_form(table, text):
    """Read form text: signed terms, each a product of factors written with
    '*' or side by side.  A factor is a generator with an optional power
    (``x^2``), ``i``, a number (``3/4``, ``1e-3``, ``2i``, ``0.5j``) or a
    parenthesized literal (``(1/2)``, ``(1-2i)``, ``(0.5+0j)``).  Signs fold
    between terms (``x - -u`` is ``x + u``); a sign after '*', a '*' without
    a factor on both sides and text that ends in an operator are refused.
    """
    result, term, last = table.zero(), table.one(), None
    # every character starts a token, so the scan skips none
    for m in _TOKEN.finditer(text):
        token = m.group().lstrip()
        if token in ("+", "-"):
            if last == "*":
                raise ValueError(f"sign {token!r} after '*' in {text!r}")
            if last not in (None, "+", "-"):
                result, term = result + term, table.one()
            if token == "-":
                term = -term
        elif token == "*":
            if last in (None, "+", "-", "*"):
                raise ValueError(f"'*' without a factor before it in {text!r}")
        elif m["bad"] in ("(", ")"):
            raise ValueError(f"unbalanced or nested parentheses in {text!r}")
        elif m["bad"]:
            raise ValueError(f"{token!r} is not a number literal" + (
                "; a parenthesized sum is not expanded" if token[0] == "(" else ""))
        elif m["name"] in table._ids:
            # g^(top + 1) is 0 for every generator g, so a larger power is too
            for _ in range(min(int(m["power"] or 1), table.top_degree + 1)):
                term = term * table.gen(m["name"])
        elif m["name"] == "i" and not m["power"]:
            term = term.scale(QC_I)
        elif m["name"]:
            raise ValueError(f"unknown generator {m['name']!r}")
        else:
            term = term.scale(_literal(token, m["lead"] or "", m["a"] or m["number"],
                                       m["mid"], m["b"], m["unit"] or m["imag"]))
        last = token
    if last in ("+", "-", "*"):
        raise ValueError(f"{text!r} ends in the operator {last!r}")
    return result + term if last else result
