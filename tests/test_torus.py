import math

import numpy as np
import pytest

from chernloc.torus import (TorusModel, chern_t_torus, chern_target,
                            convergence_report, heat_supertrace, heat_trace,
                            poisson_heat_trace, supertrace_constancy)

SPINS = ("pp", "pa", "ap", "aa")


def grid_gaussian_sum(model, s):
    """sum of exp(-s |kappa|^2) over the full 2-D lattice grid (oracle)."""
    offset = {"p": 0.0, "a": 0.5}
    m = np.arange(-model.K, model.K + 1, dtype=float)
    k1 = 2 * math.pi * (m + offset[model.spin[0]]) / model.L1
    k2 = 2 * math.pi * (m + offset[model.spin[1]]) / model.L2
    K1, K2 = np.meshgrid(k1, k2, indexing="ij")
    return float(np.sum(np.exp(-s * (K1 ** 2 + K2 ** 2))))


def test_model_validation():
    with pytest.raises(ValueError):
        TorusModel(K=0)
    with pytest.raises(ValueError):
        TorusModel(spin="px")
    for L in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="side lengths"):
            TorusModel(L1=L)
        with pytest.raises(ValueError, match="side lengths"):
            TorusModel(L2=L)
    with pytest.raises(ValueError, match="area L1 \\* L2 = 1e\\+200 \\* 1e\\+200 overflows"):
        TorusModel(L1=1e200, L2=1e200)
    for K in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            TorusModel(K=K)
    assert TorusModel(K=np.int64(3)).mode_energies().shape == (2, 7)


def test_mode_energies_are_the_two_circle_spectra():
    for K in (1, 7, 64):
        model = TorusModel(L1=3.0, L2=7.5, K=K, spin="pa")
        energies = model.mode_energies()
        assert energies.shape == (2, 2 * K + 1)
        m = np.arange(-K, K + 1)
        assert np.allclose(energies[0], (2 * math.pi * m / 3.0) ** 2, rtol=1e-15)
        assert np.allclose(energies[1], (2 * math.pi * (m + 0.5) / 7.5) ** 2, rtol=1e-15)


def test_product_form_matches_grid_sum():
    theta = {(0, 0): 0.7 - 0.2j}
    for spin in SPINS:
        for K in (1, 7, 64):
            model = TorusModel(L1=3.0, L2=7.5, K=K, spin=spin)
            for s in (1e-3, 0.05, 1.0, 150.0):
                grid = grid_gaussian_sum(model, s)
                assert abs(heat_trace(model, s) - 2 * grid) <= 1e-13 * 2 * grid
                t = math.sqrt(s)
                expected = t * t * theta[(0, 0)] * (-2j) * grid_gaussian_sum(model, t * t)
                got = chern_t_torus(model, t, theta)
                assert abs(got - expected) <= 1e-13 * abs(expected)


def test_large_cutoff():
    # a (2K+1)^2 grid of float64 here would take 537 MB per array
    model = TorusModel(K=4096)
    for s in (1e-4, 0.01):
        a = heat_trace(model, s)
        bb = poisson_heat_trace(model, s)
        assert abs(a - bb) <= 1e-10 * max(1.0, abs(bb))
    theta = {(0, 0): 1.3 + 0.4j}
    target = chern_target(model, theta)
    value = chern_t_torus(model, 0.01, theta)
    assert abs(value - target) < 1e-4 * abs(target)


def test_zero_mode_count():
    # the lowest mixed-structure mode has energy 1/4, so the tail decays
    # like exp(-s/4)
    assert abs(heat_trace(TorusModel(), 150.0) - 2.0) < 1e-12
    assert heat_trace(TorusModel(spin="aa"), 150.0) < 1e-12
    assert heat_trace(TorusModel(spin="pa"), 150.0) < 1e-12


def test_small_time_area_law():
    model = TorusModel()
    s = 0.01
    area_law = 2.0 * model.area / (4 * math.pi * s)
    got = heat_trace(model, s)
    assert abs(got - area_law) / area_law < 1e-6


def test_spectral_vs_poisson():
    for spin in ("pp", "aa", "pa", "ap"):
        model = TorusModel(spin=spin)
        for s in (0.01, 0.05, 0.2, 1.0):
            a = heat_trace(model, s)
            bb = poisson_heat_trace(model, s)
            assert abs(a - bb) <= 1e-10 * max(1.0, abs(bb))


def test_cutoff_stability():
    base = heat_trace(TorusModel(K=64), 0.01)
    double = heat_trace(TorusModel(K=128), 0.01)
    assert abs(double - base) < 1e-12 * max(1.0, base)


def test_rejects_nonpositive_time():
    model = TorusModel()
    for s in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="heat time"):
            heat_trace(model, s)
        with pytest.raises(ValueError, match="heat time"):
            heat_supertrace(model, s)
    for t in (0.0, -1.0, math.nan, math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="scaling parameter"):
            chern_t_torus(model, t, {(0, 0): 1.0})
    for s in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="heat time"):
            poisson_heat_trace(model, s)


def test_rejects_non_finite_fourier_coefficients():
    model = TorusModel(K=8)
    bad = (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0))
    for coeff in bad:
        # a non-finite coefficient is rejected also off the zero mode
        for theta in ({(0, 0): coeff}, {(0, 0): 1.0, (1, -2): coeff}):
            with pytest.raises(ValueError, match="not finite"):
                chern_t_torus(model, 0.1, theta)
            with pytest.raises(ValueError, match="not finite"):
                chern_target(model, theta)
            with pytest.raises(ValueError, match="not finite"):
                convergence_report(model, theta, [0.1])


def test_supertrace_constancy_rejects_bad_grids():
    model = TorusModel(K=4)
    for grid in ((), [], (0.1, 0.1), (0.5, 0.1), (0.01, 0.05, 0.05)):
        with pytest.raises(ValueError, match="strictly increasing"):
            supertrace_constancy(model, grid)
    with pytest.raises(ValueError, match="heat time"):
        supertrace_constancy(model, (0.0, 0.1))
    assert supertrace_constancy(model, (0.3,)) == (0.0, 0.0)


def test_supertrace_vanishes_and_is_constant():
    for spin in ("pp", "aa"):
        model = TorusModel(spin=spin)
        max_abs, max_slope = supertrace_constancy(model)
        assert max_abs < 1e-10
        assert max_slope < 1e-10
        assert abs(heat_supertrace(model, 0.3)) < 1e-12


def test_character_of_zero_form():
    assert chern_t_torus(TorusModel(), 0.1, {}) == 0
    assert chern_t_torus(TorusModel(), 0.1, {(1, 0): 2.0}) == 0  # zero mean


def test_character_converges_to_normalized_integral():
    model = TorusModel()           # L = 2 pi, K = 64
    beta = 0.8
    theta = {(0, 0): beta}
    target = beta * (2 * math.pi) ** 2 / (2j * math.pi)
    assert abs(chern_target(model, theta) - target) < 1e-15
    value = chern_t_torus(model, 0.05, theta)
    assert abs(value - target) / abs(target) < 1e-4


def test_character_is_t_stable_with_adequate_cutoff():
    # on the flat torus the rescaled diagonal heat data is t-independent up
    # to exponentially small truncation and wrap-around corrections
    model = TorusModel(K=220)
    theta = {(0, 0): 1.0}
    v1 = chern_t_torus(model, 0.05, theta)
    v2 = chern_t_torus(model, 0.02, theta)
    assert abs(v1 - v2) < 1e-4 * abs(v1)


def test_convergence_report_rows():
    model = TorusModel()
    theta = {(0, 0): 0.5}
    rep = convergence_report(model, theta, [0.2, 0.1, 0.05])
    assert len(rep.rows) == 3
    assert rep.rows[-1].relative < 1e-4
    d = rep.as_dict()
    assert d["K"] == 64 and len(d["rows"]) == 3


def test_matches_symbolic_constant_at_zero_curvature(curvature_d2):
    # the spectral limit and the symbolic boundary evaluation carry the same
    # (2 pi i)^(-1) normalization
    from chernloc.localize import limit_theorem_check
    from chernloc.mehler import CurvatureMatrix
    table, _ = curvature_d2
    R0 = CurvatureMatrix.zero(table, 2)
    w = table.gen("w")
    value = limit_theorem_check(2, R0, (table.sigma() * w,)).lhs
    (_, coeff), = value.terms.items()
    symbolic_constant = complex(coeff.evalf())          # (2 pi i)^(-1)
    model = TorusModel()
    theta = {(0, 0): 1.0}
    spectral = chern_t_torus(model, 0.05, theta) / model.area
    assert abs(spectral - symbolic_constant) < 1e-4 * abs(symbolic_constant)
    assert abs(symbolic_constant - 1.0 / (2j * math.pi)) < 1e-15
