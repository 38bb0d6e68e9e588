"""Exact scalar arithmetic.

Three small coefficient types used throughout the package:

* :class:`QC` -- complex numbers with exact rational real/imaginary parts,
  stored as one integer triple ``(re_num, im_num, den)`` over a shared
  denominator.  Arithmetic among QC, int and Fraction stays exact; mixing
  with float or complex silently degrades to the builtin ``complex``.
* :class:`TauPoly` -- Laurent polynomials in one formal parameter ``tau``
  over QC, enough to differentiate heat kernels with respect to time
  without ever evaluating them.
* :class:`PiScalar` -- a QC (or complex) coefficient times an integer power
  of pi, so that constants like (4*pi*tau)^(-d/2) and (2*pi*i)^(-d/2) can be
  compared exactly.
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
QC_I = QC(0, 1)


def coerce(x):
    """Normalize a number into a package coefficient.

    Exact inputs become QC; floats and complex floats stay inexact.
    TauPoly and PiScalar pass through.
    """
    if isinstance(x, (QC, TauPoly, PiScalar)):
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
    if isinstance(x, TauPoly):
        return not x.coeffs
    if isinstance(x, PiScalar):
        return iszero(x.value)
    return x == 0


def is_exact(x):
    return isinstance(x, (QC, TauPoly, *_EXACT)) or (
        isinstance(x, PiScalar) and is_exact(x.value))


class TauPoly:
    """Laurent polynomial in a single formal parameter over QC."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, v in coeffs.items():
                v = v if isinstance(v, QC) else QC(v)
                if not v.is_zero():
                    data[int(k)] = v
        self.coeffs = data

    @classmethod
    def var(cls, power=1, coeff=1):
        return cls({power: QC(coeff) if not isinstance(coeff, QC) else coeff})

    @classmethod
    def const(cls, c):
        c = c if isinstance(c, QC) else QC(c)
        return cls({0: c})

    # -- ring operations --------------------------------------------
    def _as_tau(self, other):
        if isinstance(other, TauPoly):
            return other
        if isinstance(other, (QC, *_EXACT)):
            return TauPoly.const(other)
        return None

    def __add__(self, other):
        o = self._as_tau(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            s = out.get(k, QC_ZERO) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        t = TauPoly.__new__(TauPoly)
        t.coeffs = out
        return t

    __radd__ = __add__

    def __neg__(self):
        t = TauPoly.__new__(TauPoly)
        t.coeffs = {k: -v for k, v in self.coeffs.items()}
        return t

    def __sub__(self, other):
        o = self._as_tau(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._as_tau(other)
        if o is None:
            return NotImplemented
        out = {}
        for ka, va in self.coeffs.items():
            for kb, vb in o.coeffs.items():
                k = ka + kb
                s = out.get(k, QC_ZERO) + va * vb
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        t = TauPoly.__new__(TauPoly)
        t.coeffs = out
        return t

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (QC, *_EXACT)):
            inv = (QC(other) if not isinstance(other, QC) else other).inverse()
            return self * inv
        if isinstance(other, TauPoly):
            if len(other.coeffs) != 1:
                raise ZeroDivisionError("can only divide by a tau-monomial")
            (k, v), = other.coeffs.items()
            t = TauPoly.__new__(TauPoly)
            t.coeffs = {p - k: c * v.inverse() for p, c in self.coeffs.items()}
            return t
        return NotImplemented

    def __pow__(self, k):
        """Integer power; a negative one needs a tau-monomial."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (TauPoly.const(1) / self) ** -k
        out = TauPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus / evaluation ----------------------------------------
    def derivative(self):
        return TauPoly({k - 1: v * k for k, v in self.coeffs.items() if k != 0})

    def __call__(self, value):
        out = QC_ZERO if isinstance(value, (QC, *_EXACT)) else 0j
        for k, v in self.coeffs.items():
            if isinstance(value, (QC, *_EXACT)):
                vv = QC(value) if not isinstance(value, QC) else value
                out = out + v * vv ** k
            else:
                out = out + complex(v) * value ** k
        return out

    # -- comparison ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, TauPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (QC, *_EXACT)):
            o = QC(other) if not isinstance(other, QC) else other
            if o.is_zero():
                return not self.coeffs
            return self.coeffs == {0: o}
        return NotImplemented

    def __hash__(self):
        if not self.coeffs.keys() - {0}:
            return hash(self.coeffs.get(0, QC_ZERO))   # equal to that constant
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*tau")
            else:
                parts.append(f"{c}*tau^{k}")
        return " + ".join(parts)

    __repr__ = __str__


class PiScalar:
    """An exact coefficient times an integer power of pi.

    Addition is only defined between equal powers (or with zero); products
    and quotients combine powers.  Used for supertrace normalizations.
    """

    __slots__ = ("value", "pi")

    def __init__(self, value, pi=0):
        self.value = coerce(value)
        self.pi = int(pi)

    def evalf(self):
        return complex(self.value) * math.pi ** self.pi

    __complex__ = evalf

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.value * other.value, self.pi + other.pi)
        try:
            c = coerce(other)
        except TypeError:
            return NotImplemented
        return PiScalar(self.value * c, self.pi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.value / other.value, self.pi - other.pi)
        return PiScalar(self.value / coerce(other), self.pi)

    def __neg__(self):
        return PiScalar(-self.value, self.pi)

    def __add__(self, other):
        if not isinstance(other, PiScalar):
            try:
                other = PiScalar(coerce(other), 0)
            except TypeError:
                return NotImplemented
        if iszero(other.value):
            return self
        if iszero(self.value):
            return other
        if self.pi != other.pi:
            raise ValueError("cannot add pi-scalars of different pi power exactly")
        return PiScalar(self.value + other.value, self.pi)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, PiScalar) else -coerce(other))

    def __eq__(self, other):
        if isinstance(other, PiScalar):
            if iszero(self.value) and iszero(other.value):
                return True
            return self.pi == other.pi and self.value == other.value
        try:
            c = coerce(other)
        except TypeError:
            return NotImplemented
        if iszero(self.value):
            return iszero(c)
        return self.pi == 0 and self.value == c

    def __hash__(self):
        if self.pi == 0 or iszero(self.value):
            return hash(self.value)   # equal to the bare value
        return hash((self.pi, self.value))

    def __bool__(self):
        return not iszero(self.value)

    def __str__(self):
        if self.pi == 0:
            return str(self.value)
        p = "pi" if self.pi == 1 else f"pi^{self.pi}"
        return f"{self.value}*{p}"

    __repr__ = __str__


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
