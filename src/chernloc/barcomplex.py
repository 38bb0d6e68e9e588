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
(``from_words``, ``+``, ``-``, ``b0``, ``b1``, ``cyclic_symmetrize``) adds
its output terms into one dict through ``scalars._add_term``, which drops
an entry as soon as its sum cancels, and wraps that dict once without
copying or rescanning it.  The cost is linear in the number of terms
produced.  ``b0`` and ``b1`` read the per-monomial ``d_T`` and product
memos of the :class:`GeneratorTable`, which the table clears whenever a
generator or a differential changes.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .multiform import SIGMA_ID, FormElement
from .scalars import QC, QC_ONE, QC_ZERO, TermMap, _add_term, coerce, iszero

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
    def from_word(cls, table, word, coeff=1):
        """Expand a word of FormElements into the monomial basis."""
        return cls.from_words(table, [(coeff, word)])

    @classmethod
    def from_words(cls, table, weighted_words):
        out = {}
        for coeff, word in weighted_words:
            coeff = coerce(coeff)
            if iszero(coeff):
                continue
            expansions = [((), coeff)]
            for entry in word:
                if not isinstance(entry, FormElement):
                    raise TypeError("word entries must be FormElements")
                if entry.table is not table:
                    raise ValueError("word entry over a different table")
                expansions = [(prefix + (mono,), c * mc) for prefix, c in expansions
                              for mono, mc in entry.terms.items()]
            for key, c in expansions:
                _add_term(out, key, c)
        return cls._wrap(table, out)

    def __len__(self):
        return len(self.terms)

    def length_component(self, n):
        return BarChain._wrap(self.table,
                              {w: c for w, c in self.terms.items() if len(w) == n})

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


def b0(chain):
    """Differential induced by d_T with signs (-1)^(n_{k-1})."""
    table = chain.table
    out = {}
    for word, coeff in chain.terms.items():
        degs = _prefix_degrees(table, word)
        for k, mono in enumerate(word):
            dtheta = table.mono_d_T(mono)
            if not dtheta:
                continue
            sign_coeff = -coeff if degs[k] & 1 else coeff
            head, tail = word[:k], word[k + 1:]
            for m2, mc in dtheta:
                _add_term(out, head + (m2,) + tail, sign_coeff * mc)
    return BarChain._wrap(table, out)


def b1(chain):
    """Differential contracting adjacent slots with the algebra product."""
    table = chain.table
    out = {}
    for word, coeff in chain.terms.items():
        degs = _prefix_degrees(table, word)
        neg = -coeff
        for k in range(len(word) - 1):
            mono, sign = table.mono_product(word[k], word[k + 1])
            if mono is None:
                continue
            # (-1)^(n + 1), n the shifted degree through the left factor,
            # times the Koszul sign of the product
            c = coeff if (degs[k + 1] & 1) == (sign > 0) else neg
            _add_term(out, word[:k] + (mono,) + word[k + 2:], c)
    return BarChain._wrap(table, out)


def b(chain):
    return b0(chain) + b1(chain)


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
    """Membership in the span of symmetrized words.

    The symmetrization S satisfies S^2 = N S on length-N words, so the
    cyclic subspace is exactly the eigenspace S x = N x.
    """
    for n in sorted({len(w) for w in chain.terms}):
        comp = chain.length_component(n)
        if n == 0:
            continue
        if cyclic_symmetrize(comp) != comp.scale(n):
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
    act on ``C^dim`` graded as ``C^dim_plus (+) C^(dim - dim_plus)``, and
    ``dim_plus`` defaults to ``dim // 2``.
    """

    __slots__ = ("table", "parity", "dim", "dim_plus", "components")

    def __init__(self, table, parity, components, dim=None, dim_plus=None):
        self.table = table
        self.parity = parity & 1
        self.dim = dim
        self.dim_plus = None
        if dim is not None:
            if not dim:
                raise ValueError("matrix cochains need a dimension")
            self.dim_plus = dim // 2 if dim_plus is None else int(dim_plus)
            if not 0 <= self.dim_plus <= dim:
                raise ValueError("dim_plus must lie in [0, dim]")
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

    def __call__(self, arg):
        if isinstance(arg, BarChain):
            return self.eval_chain(arg)
        return self.eval_chain(BarChain.from_word(self.table, tuple(arg)))

    # -- constructors -------------------------------------------------------------
    @classmethod
    def unit(cls, table, dim=None, dim_plus=None):
        value = QC_ONE if dim is None else np.eye(dim, dtype=complex)
        return cls(table, 0, {0: lambda w, v=value: v}, dim=dim, dim_plus=dim_plus)

    @classmethod
    def from_rules(cls, table, rules, parity, dim=None, dim_plus=None):
        """Finitely supported cochain: rules map monomial words to values."""
        zero = QC_ZERO if dim is None else np.zeros((dim, dim), dtype=complex)
        by_arity = {}
        for word, value in rules.items():
            by_arity.setdefault(len(word), {})[tuple(word)] = value
        components = {
            arity: (lambda word, _r=table_rules, _z=zero: _r.get(word, _z))
            for arity, table_rules in by_arity.items()
        }
        return cls(table, parity, components, dim=dim, dim_plus=dim_plus)


def cochain_mul(l1, l2):
    """Convolution-style product over all splittings, with the Koszul sign
    (-1)^(n_k |l2|) for moving l2 past the first k slots."""
    if l1.table is not l2.table:
        raise ValueError("cochains over different tables")
    if (l1.dim, l1.dim_plus) != (l2.dim, l2.dim_plus):
        raise ValueError("cochain value kinds do not match")
    table = l1.table
    arities1 = set(l1.components)
    arities2 = set(l2.components)
    out_arities = sorted({a1 + a2 for a1 in arities1 for a2 in arities2})
    parity2 = l2.parity

    def make(n):
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
        return fn

    comp = {n: make(n) for n in out_arities}
    return Cochain(table, l1.parity ^ l2.parity, comp, dim=l1.dim,
                   dim_plus=l1.dim_plus)


def beta(l):
    """Codifferential: (beta l)(w) = -(-1)^{|l|} l(b(w)); a derivation for
    the cochain product."""
    table = l.table
    arities = sorted(l.components)
    out_arities = sorted({a for a0 in arities for a in (a0, a0 + 1) if a >= 0})
    sign = -1 if l.parity == 0 else 1   # -(-1)^{|l|}

    def make(n):
        def fn(word):
            chain = b(BarChain(table, {word: QC_ONE}))
            v = l.eval_chain(chain)
            return l._vscale(QC(sign), v)
        return fn

    comp = {n: make(n) for n in out_arities}
    return Cochain(table, l.parity ^ 1, comp, dim=l.dim, dim_plus=l.dim_plus)


def cochain_parity_report(l, words):
    """Check value parity against the shifted word parity on sample words.

    For matrix cochains the value must populate only the blocks of parity
    (|l| + n_N) mod 2 with respect to the grading split at ``l.dim_plus``.
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
            elif not has_block_parity(v, l.dim_plus, want):
                bad.append((w, "odd slot carries even blocks" if want
                            else "even slot carries odd blocks"))
    return bad


def has_block_parity(mat, half, parity, tol=1e-12):
    """Whether ``mat``, split at row and column ``half``, has the given
    parity: its blocks of the other parity (the off-diagonal ones for 0,
    the diagonal ones for 1) are below ``tol`` times max(1, the norm of the
    rest), in the Frobenius norm."""
    A = np.asarray(mat)
    diag = np.linalg.norm(A[:half, :half]) + np.linalg.norm(A[half:, half:])
    off = np.linalg.norm(A[:half, half:]) + np.linalg.norm(A[half:, :half])
    if parity:
        diag, off = off, diag
    return off <= tol * max(1.0, diag)
