"""Exact scalar arithmetic.

The bottom of the package's import graph:

* :class:`QC` -- complex numbers with exact rational real/imaginary parts,
  stored as one integer triple ``(re_num, im_num, den)`` over a shared
  denominator.  Arithmetic among QC, int and Fraction stays exact; mixing
  with float or complex silently degrades to the builtin ``complex``.
* :class:`TermMap` and :func:`_add_term` -- the linear-combination core: a
  map from keys to nonzero coefficients, and the one rule by which a
  coefficient is added into such a map.  Forms, bar chains and Clifford
  elements (in their own modules) and Laurent polynomials share it.
* :class:`Laurent` -- polynomials in integer powers of one formal variable,
  written once; :class:`TauPoly` names the heat time tau, so heat kernels
  are differentiated in time without being evaluated, and
  :class:`PiScalar` names pi, so constants like (4*pi*tau)^(-d/2) and
  (2*pi*i)^(-d/2) are compared exactly.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

_EXACT = (int, Fraction)
_HASH_IMAG = sys.hash_info.imag
_HASH_MASK = (1 << sys.hash_info.width) - 1


def _qc(n, m, d):
    """The QC (n + m i) / d for ints with d > 0, reduced by one gcd."""
    if d != 1:
        g = math.gcd(n, m, d)
        if g != 1:
            n //= g
            m //= g
            d //= g
    q = object.__new__(QC)
    q.re_num = n
    q.im_num = m
    q.den = d
    return q


class QC:
    """Complex number (re_num + im_num i) / den with exact rational parts.

    The three ints satisfy ``den > 0`` and ``gcd(re_num, im_num, den) == 1``,
    so each value has exactly one triple and equality is equality of
    triples.  ``re`` and ``im`` read the parts as Fractions.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.re_num, self.im_num, self.den = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self.re_num = re.numerator * (d // re.denominator)
        self.im_num = im.numerator * (d // im.denominator)
        self.den = d

    @property
    def re(self):
        return Fraction(self.re_num, self.den)

    @property
    def im(self):
        return Fraction(self.im_num, self.den)

    # -- conversions ------------------------------------------------
    def __complex__(self):
        return complex(self.re_num / self.den, self.im_num / self.den)

    def is_zero(self):
        return not self.re_num and not self.im_num

    # -- ring operations --------------------------------------------
    def __add__(self, other):
        n, m, d = self.re_num, self.im_num, self.den
        if isinstance(other, QC):
            on, om, od = other.re_num, other.im_num, other.den
            if d == od:
                return _qc(n + on, m + om, d)
            return _qc(n * od + on * d, m * od + om * d, d * od)
        if isinstance(other, _EXACT):
            p, q = other.numerator, other.denominator
            return _qc(n * q + p * d, m * q, d * q)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self.re_num, -self.im_num, self.den)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        n, m, d = self.re_num, self.im_num, self.den
        if isinstance(other, QC):
            on, om = other.re_num, other.im_num
            return _qc(n * on - m * om, n * om + m * on, d * other.den)
        if isinstance(other, _EXACT):
            p = other.numerator
            return _qc(n * p, m * p, d * other.denominator)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division by zero")
            if p < 0:
                p, q = -p, -q
            return _qc(self.re_num * q, self.im_num * q, self.den * p)
        if isinstance(other, QC):
            return self * other.inverse()
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        if isinstance(other, (QC, *_EXACT)):
            return inv * other
        if isinstance(other, (float, complex)):
            return other * complex(inv)
        return NotImplemented

    def inverse(self):
        n, m, d = self.re_num, self.im_num, self.den
        s = n * n + m * m
        if not s:
            raise ZeroDivisionError("inverse of zero")
        return _qc(d * n, -d * m, s)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = QC(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ----------------------------------------
    def __eq__(self, other):
        if isinstance(other, QC):
            return (self.re_num == other.re_num and self.im_num == other.im_num
                    and self.den == other.den)
        if isinstance(other, _EXACT):
            return (not self.im_num and self.re_num == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, (float, complex)):
            # exact, like Fraction against float
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # combine the parts as CPython hashes complex, so that a QC hashes
        # like every int, Fraction, float or complex it equals
        h = (hash(self.re) + _HASH_IMAG * hash(self.im)) & _HASH_MASK
        if h > _HASH_MASK >> 1:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __bool__(self):
        return not self.is_zero()

    # -- printing -----------------------------------------------------
    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({re}{sign}{istr})"

    __repr__ = __str__


QC_ZERO = QC(0)
QC_ONE = QC(1)
QC_MINUS_ONE = QC(-1)
QC_I = QC(0, 1)


def coerce(x):
    """Normalize a number into a package coefficient.

    Exact inputs become QC; floats and complex floats stay inexact.
    Laurent polynomials (TauPoly, PiScalar) pass through.
    """
    if isinstance(x, (QC, Laurent)):
        return x
    if isinstance(x, _EXACT):
        return QC(x)
    if isinstance(x, float):
        return complex(x)
    if isinstance(x, complex):
        return x
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient")


def iszero(x):
    if isinstance(x, QC):
        return x.is_zero()
    if isinstance(x, Laurent):
        return not x.terms
    return x == 0


def is_exact(x):
    if isinstance(x, Laurent):
        return all(map(is_exact, x.terms.values()))
    return isinstance(x, (QC, *_EXACT))


# -- linear combinations -------------------------------------------------------------


class TableMismatchError(ValueError):
    """Raised when elements over different generator tables, or Clifford
    elements of different dimensions, are combined."""


def _add_term(out, key, c):
    """Add the nonzero ``c`` to the coefficient of ``key`` in ``out``,
    dropping it when the sum cancels: the one rule by which forms, bar
    chains, Clifford elements and Laurent polynomials accumulate a
    coefficient.

    An exact ``c`` for a key not yet in ``out`` is stored as it is.  Any
    other starts from 0 + c, as a sum does, so that a float product that
    underflowed to zero is dropped and a zero part loses its sign.
    """
    s = out.get(key)
    if s is None:
        if type(c) is QC:
            out[key] = c
            return
        s = QC_ZERO
    s = s + c
    if iszero(s):
        out.pop(key, None)
    else:
        out[key] = s


class TermMap:
    """A finite linear combination: ``terms`` maps keys to nonzero
    coefficients over one ``context`` (the generator table of a form or a
    bar chain, the dimension of a Clifford element, the variable of a
    Laurent polynomial).

    A subclass binds ``context`` (a form, chain or Clifford element as an
    alias of the slot that holds it, so reading it costs no call; a Laurent
    polynomial as the name of its variable), a ``_wrap(context, terms)``
    constructor that owns a zero-free dict without copying or re-filtering
    it, and its products; ``_promote`` may read other operands of a sum as
    elements.  The linear structure lives here, and every sum adds its
    coefficients through :func:`_add_term`.
    """

    __slots__ = ()
    _CONTEXT = "generator tables"

    def is_zero(self):
        return not self.terms

    def __iter__(self):
        return iter(self.terms.items())

    def _check(self, other):
        if self.context != other.context:
            raise TableMismatchError(
                f"{type(self).__name__} operands over different {self._CONTEXT}")

    def _promote(self, other):
        """``other`` as an element of this class, or None when it has no
        such reading; by default only elements of the class combine."""
        return None

    def _sum(self, other, negate=False):
        """self + other, or self - other with ``negate``."""
        if type(other) is not type(self):
            other = self._promote(other)
            if other is None:
                return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(out, key, -c if negate else c)
        return self._wrap(self.context, out)

    def __add__(self, other):
        return self._sum(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, negate=True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._wrap(self.context, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = coerce(c)
        if iszero(c):
            return self._wrap(self.context, {})
        return self._wrap(self.context, {k: p for k, v in self.terms.items()
                                         if not iszero(p := c * v)})

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.context == other.context and self.terms == other.terms
        if other == 0:
            return self.is_zero()
        return NotImplemented


# -- Laurent polynomials in one formal variable ----------------------------------------


class Laurent(TermMap):
    """sum_k c_k x^k over integer powers k: ``terms`` maps a power to its
    nonzero coefficient (a QC, or a complex when inexact).

    A number is the constant polynomial, so it enters ``+``, ``-``, ``*``,
    ``/`` and ``==``; polynomials in different variables (subclasses) do not
    mix.  A subclass only names its variable, its ``context``.
    """

    __slots__ = ("terms",)
    context = "x"

    def __init__(self, terms=None):
        self.terms = {int(k): c for k, v in (terms or {}).items()
                      if not iszero(c := coerce(v))}

    @classmethod
    def _wrap(cls, context, terms):
        """Wrap ``terms`` that hold no zero coefficient, without re-filtering."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def var(cls, power=1, coeff=1):
        """The monomial coeff * x^power."""
        c = coerce(coeff)
        return cls._wrap(cls.context, {} if iszero(c) else {int(power): c})

    @classmethod
    def const(cls, c):
        return cls.var(0, c)

    def _promote(self, other):
        """``other`` in this variable: itself, or a number as a constant;
        None for a polynomial in another variable or a non-number."""
        if isinstance(other, Laurent):
            return other if type(other) is type(self) else None
        try:
            return self.const(other)
        except TypeError:
            return None

    # -- products -------------------------------------------------------------
    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if len(o.terms) == 1:
            # a monomial only shifts the powers: no two products meet, so
            # each is kept as it is (a float one with its signed zeros)
            (k, v), = o.terms.items()
            return self._wrap(self.context, {p + k: q for p, c in self.terms.items()
                                             if not iszero(q := c * v)})
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in o.terms.items():
                _add_term(out, ka + kb, va * vb)
        return self._wrap(self.context, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a number or a monomial."""
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if len(o.terms) != 1:
            raise ZeroDivisionError(f"can only divide by a {self.context}-monomial")
        (k, v), = o.terms.items()
        return self._wrap(self.context, {p - k: q for p, c in self.terms.items()
                                         if not iszero(q := c / v)})

    def __pow__(self, k):
        """Integer power; a negative one needs a monomial."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (self.const(1) / self) ** -k
        out = self.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus / evaluation ----------------------------------------------------
    def derivative(self):
        return self._wrap(self.context,
                          {k - 1: c * k for k, c in self.terms.items() if k})

    def __call__(self, x):
        """The value at ``x``: exact at an exact ``x``, else a complex."""
        if is_exact(x):
            x, start = coerce(x), QC_ZERO
        else:
            start = 0j
        return sum((c * x ** k for k, c in self.terms.items()), start)

    # -- comparison / printing ----------------------------------------------------
    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if not self.terms.keys() - {0}:
            return hash(self.terms.get(0, 0))   # equal to that constant
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        x = self.context
        parts = [str(c) if k == 0 else f"{c}*{x}" if k == 1 else f"{c}*{x}^{k}"
                 for k, c in sorted(self.terms.items())]
        return " + ".join(parts) or "0"

    __repr__ = __str__


class TauPoly(Laurent):
    """Laurent polynomial in the formal heat time tau, enough to
    differentiate heat kernels in time without evaluating them."""

    __slots__ = ()
    context = "tau"


class PiScalar(Laurent):
    """Laurent polynomial in pi, such as (4 pi tau)^(-d/2) at a numeric tau
    or (2 pi i)^(-d/2).  Since pi is transcendental, powers of pi add as
    independent terms and equality is exact.  At a formal time the
    coefficients are themselves TauPoly."""

    __slots__ = ()
    context = "pi"

    def __init__(self, value, pi=0):
        """The monomial value * pi^pi."""
        value = coerce(value)
        self.terms = {} if iszero(value) else {int(pi): value}

    def evalf(self):
        return self(math.pi)

    __complex__ = evalf


# (-i)^m by m mod 4, as (real, imaginary) parts
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def two_over_i_pow(d):
    """(2/i)^(d/2) = (-2i)^(d/2) = 2^(d/2) (-i)^(d/2) for even d >= 0, as an
    exact QC."""
    if d % 2 or d < 0:
        raise ValueError("dimension must be even and nonnegative")
    m = d // 2
    re, im = _MINUS_I_POWERS[m % 4]
    return QC(re << m, im << m)


def two_pi_i_inv_pow(d):
    """(2 pi i)^(-d/2) for even d, as an exact PiScalar."""
    if d % 2:
        raise ValueError("dimension must be even")
    return PiScalar(QC(0, 2) ** (-(d // 2)), -(d // 2))


def bernoulli_numbers(n):
    """Bernoulli numbers B_0..B_n as Fractions (Akiyama-Tanigawa).

    Only the even-index values are used downstream, so the B_1 sign
    convention does not matter.
    """
    out = []
    for m in range(n + 1):
        row = []
        for j in range(m + 1):
            row.append(Fraction(1, j + 1))
            for k in range(j, 0, -1):
                row[k - 1] = k * (row[k - 1] - row[k])
        out.append(row[0])
    return out
