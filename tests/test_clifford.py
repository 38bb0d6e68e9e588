import itertools
import random

import numpy as np
import pytest

from chernloc.clifford import (CliffordElement, berezin_str, blade_product,
                               exterior_table, quantize, represent,
                               spinor_representation, symbol)
from chernloc.scalars import QC, two_over_i_pow


def basis_form(table, indices):
    out = table.one()
    for i in indices:
        out = out * table.gen(f"e{i}")
    return out


def all_subsets(d):
    for r in range(d + 1):
        yield from itertools.combinations(range(1, d + 1), r)


def brute_blade_product(a, b):
    """List-based reordering oracle for the blade product under e_i^2 = -1."""
    seq = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out), sign


def test_blade_product_against_brute_force():
    for d in (2, 3, 4):
        for a in all_subsets(d):
            for b in all_subsets(d):
                mask_a = sum(1 << (i - 1) for i in a)
                mask_b = sum(1 << (i - 1) for i in b)
                mask, sign = blade_product(mask_a, mask_b)
                seq, bsign = brute_blade_product(a, b)
                assert mask == sum(1 << (i - 1) for i in seq)
                assert sign == bsign


def test_generator_squares_to_minus_one():
    e1 = CliffordElement.generator(2, 1)
    assert e1 * e1 == CliffordElement(2, {0: QC(-1)})


def test_product_of_orthogonal_generators_is_quantization():
    t = exterior_table(2)
    e1c, e2c = CliffordElement.generator(2, 1), CliffordElement.generator(2, 2)
    assert e1c * e2c == quantize(basis_form(t, (1, 2)))


def test_quantize_unit_and_monomials():
    t = exterior_table(4)
    assert quantize(t.one()) == CliffordElement.one(4)
    a = quantize(basis_form(t, (1, 2)))
    assert a == CliffordElement.from_subset(4, (1, 2))


def test_quantize_rejects_sigma():
    t = exterior_table(2)
    with pytest.raises(ValueError):
        quantize(t.sigma() * t.gen("e1"))


def test_symbol_inverts_quantization():
    for d in (2, 4):
        t = exterior_table(d)
        for sub in all_subsets(d):
            omega = basis_form(t, sub)
            assert symbol(quantize(omega)) == omega
            assert symbol(quantize(omega), k=len(sub)) == omega
    # and on the Clifford side
    for d in (2, 4):
        for sub in all_subsets(d):
            a = CliffordElement.from_subset(d, sub)
            assert quantize(symbol(a)) == a


def test_symbol_component_examples():
    e1 = CliffordElement.generator(2, 1)
    e2 = CliffordElement.generator(2, 2)
    t = exterior_table(2)
    assert symbol(e1 * e1, k=0) == t.one().scale(-1)
    assert symbol(e1 * e2, k=2) == basis_form(t, (1, 2))
    # components above the Clifford order vanish
    assert symbol(e1, k=2).is_zero()


def test_top_symbol_multiplicativity_exhaustive():
    # [c(alpha) c(beta)]_{|alpha|+|beta|} = alpha ^ beta
    for d in (2, 4):
        t = exterior_table(d)
        for sa in all_subsets(d):
            for sb in all_subsets(d):
                alpha, beta = basis_form(t, sa), basis_form(t, sb)
                prod = quantize(alpha) * quantize(beta)
                assert symbol(prod, k=len(sa) + len(sb)) == alpha * beta


def test_clifford_order_filtration_exhaustive():
    for d in (2, 3, 4):
        for sa in all_subsets(d):
            for sb in all_subsets(d):
                a = CliffordElement.from_subset(d, sa)
                bb = CliffordElement.from_subset(d, sb)
                prod = a * bb
                if not prod.is_zero():
                    assert prod.order() <= a.order() + bb.order()


def test_berezin_normalization_against_spinor_matrices():
    # the (2/i)^(d/2) constant is re-derived, not trusted: the Berezin value
    # of every basis blade must match the matrix supertrace of its image
    for d in (2, 4):
        gammas, grading = spinor_representation(d)
        dim = gammas[0].shape[0]
        assert dim == 2 ** (d // 2)
        for i in range(d):
            for j in range(d):
                anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                want = -2.0 * np.eye(dim) if i == j else np.zeros((dim, dim))
                assert np.allclose(anti, want)
        assert np.allclose(grading @ grading, np.eye(dim))
        for sub in all_subsets(d):
            a = CliffordElement.from_subset(d, sub)
            matrix_str = complex(np.trace(grading @ represent(a)))
            assert abs(matrix_str - complex(berezin_str(a))) < 1e-12


def test_berezin_examples():
    assert berezin_str(CliffordElement.one(2)) == QC(0)
    top2 = CliffordElement.from_subset(2, (1, 2))
    assert berezin_str(top2) == two_over_i_pow(2)
    top4 = CliffordElement.from_subset(4, (1, 2, 3, 4))
    assert berezin_str(top4) == two_over_i_pow(4)


def test_berezin_kills_low_order_and_commutators():
    rng = random.Random(9)
    for d in (2, 4):
        for sub in all_subsets(d):
            if len(sub) < d:
                assert berezin_str(CliffordElement.from_subset(d, sub)) == QC(0)
        # supertrace property on random homogeneous pairs, brute force
        subsets = list(all_subsets(d))
        for _ in range(60):
            sa, sb = rng.choice(subsets), rng.choice(subsets)
            a = CliffordElement.from_subset(d, sa, coeff=QC(rng.randint(1, 3)))
            bb = CliffordElement.from_subset(d, sb, coeff=QC(rng.randint(1, 3)))
            sign = (-1) ** (len(sa) * len(sb))
            comm = a * bb - (bb * a).scale(sign)
            assert berezin_str(comm) == QC(0)


def test_dimension_mismatch_rejected():
    a = CliffordElement.generator(2, 1)
    b = CliffordElement.generator(4, 1)
    with pytest.raises(ValueError):
        a * b


def test_odd_dimension_supertrace_rejected():
    with pytest.raises(ValueError):
        berezin_str(CliffordElement.generator(3, 1))


def test_quantize_rejects_higher_degree_generators():
    from chernloc.multiform import GeneratorTable
    t = GeneratorTable(4)
    t.add_generator("u", 2)
    with pytest.raises(ValueError):
        quantize(t.gen("u"), dim=4)


def test_canonical_serialization_golden():
    a = CliffordElement.from_subset(4, (1, 3), coeff=QC(2)) + \
        CliffordElement.one(4).scale(QC(0, -1))
    assert str(a) == "-i + 2 * e{1,3}"
    assert str(CliffordElement.zero(2)) == "0"
