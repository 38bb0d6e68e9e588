"""Exact graded-algebra machinery and desk-scale numerics for heat-kernel
localization of Chern characters.

The package is organized around:

* :mod:`chernloc.multiform`  -- finitely generated graded-commutative form
  algebras with a degree (-1) extension variable and d_T = d - iota;
* :mod:`chernloc.clifford`   -- Cl(R^d), quantization map, Clifford symbol,
  Berezin supertrace, spinor representation;
* :mod:`chernloc.barcomplex` -- bar and cyclic chains, the restriction map
  rho = (1/N!) theta''_1 ^ ... ^ theta''_N, and the cochain algebra with its
  codifferential;
* :mod:`chernloc.fredholm`   -- finite matrix models, the curvature cochain,
  the perturbation-series character, idempotent chains, the heat-supertrace
  comparison;
* :mod:`chernloc.mehler`     -- nilpotent Gaussian calculus: the
  characteristic form, oscillator kernels, twisted convolution, boundary
  supertrace;
* :mod:`chernloc.localize`   -- the localization formula on one restriction
  rho: the boundary supertrace of rho times the time-one heat element
  against (2 pi i)^(-d/2) [A-hat(R) ^ rho]_top;
* :mod:`chernloc.torus`      -- spectral convergence checks on a flat torus.
"""

from .barcomplex import (BarChain, Cochain, b, b0, b1, beta, cochain_mul,
                         cyclic_symmetrize, is_cyclic, restrict_i)
from .clifford import (CliffordElement, berezin_str, exterior_table, quantize,
                       spinor_representation, symbol)
from .formmatrix import FormMatrix
from .fredholm import (FredholmModel, bismut_chern, chern_t,
                       curvature_cochain, mckean_singer_check)
from .localize import limit_theorem_check
from .mehler import (KAPPA_COEFF, CurvatureMatrix, GaussianKernel, a_hat,
                     heat_element, heat_equation_residual, kappa_form,
                     mehler_kernel, solve_kappa_constant, str_zero,
                     twisted_convolve)
from .multiform import FormElement, GeneratorTable, check_dga, parse_form
from .scalars import QC, PiScalar, TauPoly
from .torus import (TorusModel, chern_t_torus, convergence_report, heat_trace,
                    poisson_heat_trace)

__version__ = "0.1.0"

__all__ = [
    "BarChain", "Cochain", "b", "b0", "b1", "beta", "cochain_mul",
    "cyclic_symmetrize", "is_cyclic", "restrict_i",
    "CliffordElement", "berezin_str", "exterior_table",
    "quantize", "spinor_representation", "symbol",
    "FormMatrix",
    "FredholmModel", "bismut_chern", "chern_t", "curvature_cochain",
    "mckean_singer_check",
    "limit_theorem_check",
    "KAPPA_COEFF", "CurvatureMatrix", "GaussianKernel", "a_hat",
    "heat_element", "heat_equation_residual", "kappa_form", "mehler_kernel",
    "solve_kappa_constant", "str_zero", "twisted_convolve",
    "FormElement", "GeneratorTable", "check_dga", "parse_form",
    "QC", "PiScalar", "TauPoly",
    "TorusModel", "chern_t_torus", "convergence_report", "heat_trace",
    "poisson_heat_trace",
]
