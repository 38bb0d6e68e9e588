"""Bar complex of a sigma-extended form algebra, cyclic chains and cochains.

Chains are stored in a canonical basis: every tensor word is expanded
multilinearly until each slot is a single monomial with coefficient one, the
scalars being hoisted into the chain coefficient.  This makes all the signed
identities (b0^2 = 0, b0 b1 + b1 b0 = 0, cyclic invariance) exact coefficient
computations.

Degree bookkeeping follows the shifted convention
``n_k = |theta_1| + ... + |theta_k| - k`` for words of homogeneous entries.

A :class:`BarChain` is a ``scalars.TermMap`` over its generator table,
so it shares the linear structure of forms.  Every chain operation
(``from_words``, ``+``, ``-``, ``b0``, ``b1``, ``b``,
``cyclic_symmetrize``) adds its output terms into one dict through
``scalars._add_term``, which drops an entry as soon as its sum cancels, and
wraps that dict once without copying or rescanning it.  The cost is linear
in the number of terms produced.

``b0``, ``b1`` and ``b`` are one walk per word (:func:`_boundary`): the
walk reads each slot's degree from the table's degree memo once, carries
the parity of the shifted degree, and adds the d_T terms, the adjacent
products or, for ``b``, both into the one output dict.  The d_T and
product terms come from the per-monomial memos of the
:class:`GeneratorTable`, which the table clears whenever a generator or a
differential changes.  The d_T memo stores an exact coefficient of +-1 as
the shared ``QC_ONE`` or ``QC_MINUS_ONE``, so the walk uses the signed
chain coefficient as it is instead of multiplying.  Cyclic membership is
one signed rotation per word (:func:`is_cyclic`), with no symmetrized chain
and no negated coefficient built.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .multiform import SIGMA_ID, FormElement, _integer
from .scalars import (QC, QC_MINUS_ONE, QC_ONE, QC_ZERO, TermMap, _add_term,
                      coerce, iszero)

# -- chains -------------------------------------------------------------------


class BarChain(TermMap):
    """Formal linear combination of bar words over one generator table.

    Internally a word is a tuple of monomials (each slot homogeneous by
    construction); the public constructors accept words of FormElements.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table, terms=None):
        self.table = table
        self.terms = {}
        if terms:
            for word, c in terms.items():
                if not iszero(c):
                    self.terms[word] = c

    @classmethod
    def _wrap(cls, table, terms):
        """Chain owning ``terms`` as is: the dict must be free of zeros and
        is neither copied nor rescanned."""
        chain = cls.__new__(cls)
        chain.table = table
        chain.terms = terms
        return chain

    # bound in this class body, where the benchmark's tracer looks it up
    __add__ = TermMap.__add__

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, table):
        return cls._wrap(table, {})

    @classmethod
    def from_word(cls, table, word):
        """Expand a word of FormElements into the monomial basis."""
        return cls.from_words(table, [(1, word)])

    @classmethod
    def from_words(cls, table, weighted_words):
        out = {}
        for coeff, word in weighted_words:
            coeff = coerce(coeff)
            if iszero(coeff):
                continue
            if type(word) is not tuple:
                word = tuple(word)
            for entry in word:
                if not isinstance(entry, FormElement):
                    raise TypeError("word entries must be FormElements")
                if entry.table is not table:
                    raise ValueError("word entry over a different table")
            if not word:
                _add_term(out, (), coeff)
                continue
            expansions = [((), coeff)]
            for entry in word[:-1]:
                expansions = [(prefix + (mono,), c * mc) for prefix, c in expansions
                              for mono, mc in entry.terms.items()]
            # the last slot's terms go straight into the output
            last = word[-1].terms.items()
            for prefix, c in expansions:
                for mono, mc in last:
                    _add_term(out, prefix + (mono,), c * mc)
        return cls._wrap(table, out)

    def __len__(self):
        return len(self.terms)

    # -- serialization ----------------------------------------------------------
    def to_lists(self):
        """Nested-list text form: [[coeff, [slot, slot, ...]], ...]."""
        table = self.table
        rows = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.terms[word]
            rows.append([str(coeff), [table.mono_str(m) for m in word]])
        return rows

    def __str__(self):
        if not self.terms:
            return "0"
        table = self.table
        rows = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            slots = ", ".join(table.mono_str(m) for m in word)
            rows.append(f"{self.terms[word]} * ({slots})")
        return " + ".join(rows)

    __repr__ = __str__


# the table is the TermMap context, read straight from its slot
BarChain.context = BarChain.table


def _prefix_degrees(table, word):
    """The shifted degrees n_k = |m_1| + ... + |m_k| - k for k = 0..N."""
    out = [0]
    acc = 0
    for mono in word:
        acc += table.mono_degree(mono) - 1
        out.append(acc)
    return out


def _boundary(chain, d_T_terms, products):
    """The d_T terms (b0), the adjacent products (b1) or both (b) of every
    word, added into one dict in one walk per word.

    The walk carries the parity of the shifted degree n_k of the slots
    before slot k, reading each slot's degree from the table's degree memo
    once.  A d_T coefficient of exactly +-1 is the shared ``QC_ONE`` or
    ``QC_MINUS_ONE`` (:meth:`GeneratorTable.mono_d_T` stores it so), and
    then the signed chain coefficient is used as it is.
    """
    table = chain.table
    degree_memo = table._degree_memo
    mono_d_T = table.mono_d_T
    mono_product = table.mono_product
    out = {}
    for word, coeff in chain.terms.items():
        neg = None   # -coeff, built when first needed
        last = len(word) - 1
        odd = 0   # n_k & 1
        for k, mono in enumerate(word):
            if d_T_terms:
                dtheta = mono_d_T(mono)
                if dtheta:
                    if neg is None:
                        neg = -coeff
                    # (-1)^(n_k) times the coefficient of d_T
                    plus, minus = (neg, coeff) if odd else (coeff, neg)
                    head, tail = word[:k], word[k + 1:]
                    for m2, mc in dtheta:
                        if mc is QC_ONE:
                            c = plus
                        elif mc is QC_MINUS_ONE:
                            c = minus
                        else:
                            c = plus * mc
                        _add_term(out, head + (m2,) + tail, c)
            deg = degree_memo.get(mono)
            if deg is None:
                deg = table.mono_degree(mono)
            odd ^= (deg ^ 1) & 1   # now n_(k+1) & 1
            if products and k < last:
                m2, sign = mono_product(mono, word[k + 1])
                if m2 is not None:
                    # (-1)^(n + 1), n the shifted degree through the left
                    # factor, times the Koszul sign of the product
                    if odd == (sign > 0):
                        c = coeff
                    elif neg is None:
                        c = neg = -coeff
                    else:
                        c = neg
                    _add_term(out, word[:k] + (m2,) + word[k + 2:], c)
    return BarChain._wrap(table, out)


def b0(chain):
    """Differential induced by d_T with signs (-1)^(n_{k-1}): one walk per
    word (:func:`_boundary`), unit d_T coefficients not multiplied."""
    return _boundary(chain, True, False)


def b1(chain):
    """Differential contracting adjacent slots with the algebra product:
    one walk per word (:func:`_boundary`)."""
    return _boundary(chain, False, True)


def b(chain):
    """b = b0 + b1: one walk per word (:func:`_boundary`) adds the d_T and
    the product terms into one dict.  On float coefficients the sums may
    round apart from ``b0(chain) + b1(chain)``, which adds them in another
    order."""
    return _boundary(chain, True, True)


def cyclic_symmetrize(chain):
    """Signed sum of cyclic rotations, one term per rotation.

    The rotation by k carries the sign (-1)^(n_k (n_N - n_k)).
    """
    table = chain.table
    out = {}
    for word, coeff in chain.terms.items():
        n = len(word)
        if n == 0:
            _add_term(out, word, coeff)
            continue
        degs = _prefix_degrees(table, word)
        n_total = degs[n]
        neg = -coeff
        for k in range(n):
            nk = degs[k]
            c = neg if (nk * (n_total - nk)) & 1 else coeff
            _add_term(out, word[k:] + word[:k], c)
    return BarChain._wrap(table, out)


def is_cyclic(chain):
    """Membership in the span of symmetrized words, by one signed rotation.

    Let T rotate a length-N word by one slot, ``word[1:] + word[:1]``, with
    the sign (-1)^(n_1 (n_N - n_1)).  Its k-th power is the rotation by k
    with the sign of :func:`cyclic_symmetrize`, and T^N = 1.  So the
    symmetrization S = sum_k T^k acts as N on the fixed space of T and as 0
    on the other eigenspaces (the other N-th roots of unity): S x = N x
    exactly when T x = x.  T permutes basis words, so T x = x is checked
    one word at a time, and words of length 0 and 1 are fixed by T.

    The parities of n_1 and n_N come from one read of the degree memo per
    slot.  Two ``QC`` coefficients are compared as +-1 times each other by
    their integer triples, so no negated coefficient is built; any other
    pair is compared with ``!=``.  Either way the test is an exact equality.
    """
    table = chain.table
    degree_memo = table._degree_memo
    terms = chain.terms
    for word, coeff in terms.items():
        if len(word) < 2:
            continue
        odd = 0   # n_N & 1
        for mono in word:
            deg = degree_memo.get(mono)
            if deg is None:
                deg = table.mono_degree(mono)
            odd ^= (deg ^ 1) & 1
        deg = degree_memo[word[0]]
        # n_1 (n_N - n_1) is odd when n_1 is odd and n_N is even
        flip = not deg & 1 and not odd
        other = terms.get(word[1:] + word[:1])
        if type(other) is QC and type(coeff) is QC:
            re_num, im_num = coeff.re_num, coeff.im_num
            if flip:
                re_num, im_num = -re_num, -im_num
            if (other.re_num != re_num or other.im_num != im_num
                    or other.den != coeff.den):
                return False
        elif other != (-coeff if flip else coeff):
            return False
    return True


def restrict_i(chain):
    """The restriction map rho: (theta_1, ..., theta_N) ->
    (1/N!) theta_1'' ^ ... ^ theta_N'', with theta = theta' + sigma theta''.

    A monomial slot's theta'' is the monomial without its leading sigma; a
    word with a sigma-free slot restricts to zero.  The slots' theta'' are
    multiplied through the table's product memo.  Returns a form.
    """
    table = chain.table
    out = {}
    for word, coeff in chain.terms.items():
        mono, sign = (), 1
        for slot in word:
            if not slot or slot[0] != SIGMA_ID:
                break
            mono, s = table.mono_product(mono, slot[1:])
            if mono is None:
                break
            sign *= s
        else:
            c = coeff * QC(1) / factorial(len(word))
            _add_term(out, mono, c if sign > 0 else -c)
    return FormElement._wrap(table, out)


# -- cochains -------------------------------------------------------------------


class Cochain:
    """Multilinear functional on bar words with scalar or matrix values.

    ``components[N]`` maps a length-N monomial word to a value; missing
    arities evaluate to zero.  ``parity`` refers to the shifted grading, so
    an even cochain takes values of parity n_N on a word with
    n_N = sum |theta_i| - N.

    A cochain is matrix-valued exactly when ``dim`` is given: its values
    are ``dim x dim`` matrices.  ``dim`` must be an int (a float, bool or
    string is refused, not truncated), with 1 <= dim.
    """

    __slots__ = ("table", "parity", "dim", "components")

    def __init__(self, table, parity, components, dim=None):
        self.table = table
        self.parity = parity & 1
        if dim is not None:
            dim = _integer(dim, "'dim'")
            if dim < 1:
                raise ValueError(f"matrix cochains need a positive dimension, got {dim}")
        self.dim = dim
        self.components = dict(components)

    # -- value helpers ---------------------------------------------------------
    def zero_value(self):
        if self.dim is not None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return QC_ZERO

    def _vmul(self, a, b):
        if self.dim is not None:
            return a @ b
        return a * b

    def _vscale(self, c, a):
        if self.dim is not None:
            return complex(c) * a
        return c * a

    def _viszero(self, a):
        if self.dim is not None:
            return not np.any(a)
        return iszero(a)

    # -- evaluation -------------------------------------------------------------
    def eval_word(self, word):
        fn = self.components.get(len(word))
        if fn is None:
            return self.zero_value()
        return fn(word)

    def eval_chain(self, chain):
        out = self.zero_value()
        for word, coeff in chain.terms.items():
            v = self.eval_word(word)
            if not self._viszero(v):
                out = out + self._vscale(coeff, v)
        return out

    # -- constructors -------------------------------------------------------------
    @classmethod
    def unit(cls, table):
        """The scalar unit: 1 on the empty word."""
        return cls(table, 0, {0: lambda w: QC_ONE})

    @classmethod
    def from_rules(cls, table, rules, parity):
        """Finitely supported scalar cochain: rules map monomial words to
        values."""
        by_arity = {}
        for word, value in rules.items():
            by_arity.setdefault(len(word), {})[tuple(word)] = value
        return cls(table, parity, {
            arity: lambda word, _r=table_rules: _r.get(word, QC_ZERO)
            for arity, table_rules in by_arity.items()})


def cochain_mul(l1, l2):
    """Convolution-style product over all splittings, with the Koszul sign
    (-1)^(n_k |l2|) for moving l2 past the first k slots."""
    if l1.table is not l2.table:
        raise ValueError("cochains over different tables")
    if l1.dim != l2.dim:
        raise ValueError("cochain value kinds do not match")
    table = l1.table
    arities1 = set(l1.components)
    arities2 = set(l2.components)
    out_arities = sorted({a1 + a2 for a1 in arities1 for a2 in arities2})
    parity2 = l2.parity

    def fn(word):
        degs = _prefix_degrees(table, word)
        total = None
        for k in range(len(word) + 1):
            if k not in arities1 or (len(word) - k) not in arities2:
                continue
            v1 = l1.eval_word(word[:k])
            if l1._viszero(v1):
                continue
            v2 = l2.eval_word(word[k:])
            if l2._viszero(v2):
                continue
            v = l1._vmul(v1, v2)
            if parity2 and (degs[k] & 1):
                v = l1._vscale(QC(-1), v)
            total = v if total is None else total + v
        return total if total is not None else l1.zero_value()

    return Cochain(table, l1.parity ^ l2.parity, dict.fromkeys(out_arities, fn),
                   dim=l1.dim)


def beta(l):
    """Codifferential: (beta l)(w) = -(-1)^{|l|} l(b(w)); a derivation for
    the cochain product."""
    table = l.table
    arities = sorted(l.components)
    out_arities = sorted({a for a0 in arities for a in (a0, a0 + 1) if a >= 0})
    sign = -1 if l.parity == 0 else 1   # -(-1)^{|l|}

    def fn(word):
        chain = b(BarChain(table, {word: QC_ONE}))
        v = l.eval_chain(chain)
        return l._vscale(QC(sign), v)

    return Cochain(table, l.parity ^ 1, dict.fromkeys(out_arities, fn), dim=l.dim)


def has_block_parity(mat, half, parity):
    """Whether ``mat``, split at row and column ``half``, has the given
    parity: its blocks of the other parity (the off-diagonal ones for 0,
    the diagonal ones for 1) are below 1e-12 times max(1, the norm of the
    rest), in the Frobenius norm."""
    A = np.asarray(mat)
    diag = np.linalg.norm(A[:half, :half]) + np.linalg.norm(A[half:, half:])
    off = np.linalg.norm(A[:half, half:]) + np.linalg.norm(A[half:, :half])
    if parity:
        diag, off = off, diag
    return off <= 1e-12 * max(1.0, diag)
