"""Command-line entry points.

Subcommands:

* ``check-bar``       -- randomized differential/cyclic invariants over a table
* ``mckean-singer``   -- heat-supertrace comparison for an idempotent model
* ``bismut-chern``    -- build and validate the idempotent cyclic chain
* ``mehler``          -- semigroup / heat-equation / characteristic-form suites
* ``localize``        -- small-time limit versus the characteristic form
* ``torus``           -- spectral convergence report on the flat torus

Inputs are plain-text generator tables (``check-bar``) or small JSON
documents; every subcommand emits a machine-readable JSON report on stdout
and exits nonzero on failure: status 1 when a check fails, status 2 with
``{"ok": false, "error": ...}`` when the input cannot be read or is invalid.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

import numpy as np

from . import barcomplex, fredholm, localize, mehler, sampling, torus
from .formmatrix import FormMatrix
from .multiform import GeneratorTable, check_dga
from .scalars import QC, is_exact

# the acceptance suite's tolerances: |lhs - rhs| of the heat-supertrace
# comparison, and the relative error of each torus row
_MCKEAN_SINGER_TOL = 1e-8
_TORUS_TOL = 1e-4


def _load_table(spec):
    if not isinstance(spec, dict):
        raise ValueError(f"'table' must be a JSON object, got {spec!r}")
    entries = _json_list(spec, "generators", None)
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("'generators' must list [name, degree, differential] "
                             f"triples, got {entry!r}")
    return GeneratorTable.build(spec["top_degree"], entries)


def _parse_complex(x):
    """A JSON number, a string such as "1-2i", "inf" or "1+infi", or a pair
    [re, im] of real numbers or strings, as a complex number."""
    try:
        if isinstance(x, str):
            return complex(x[:-1] + "j" if x.endswith("i") else x)
        if isinstance(x, list) and len(x) == 2:
            return complex(_parse_real(x[0]), _parse_real(x[1]))
        return complex(_parse_real(x))
    except (ValueError, OverflowError):
        raise ValueError(f"bad complex number {x!r}") from None


def _parse_real(x):
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValueError
    return float(x)


def _parse_matrix(rows):
    return np.array([[_parse_complex(x) for x in row] for row in rows])


def _emit(report, ok):
    # serialized before writing, so a non-finite value raises before any
    # output and the caller reports it as invalid input
    sys.stdout.write(json.dumps(report, indent=2, default=str, allow_nan=False) + "\n")
    return 0 if ok else 1


# -- check-bar --------------------------------------------------------------------


def cmd_check_bar(args):
    if args.chains < 1:
        raise ValueError(f"--chains must be at least 1, got {args.chains}")
    with open(args.table) as fh:
        table = GeneratorTable.from_text(fh.read())
    # the checks are exact equalities, which float rounding would fail
    for gid, name in enumerate(table.names[1:], 1):
        for coeff in table.differential(gid).terms.values():
            if not is_exact(coeff):
                raise ValueError(f"the differential of {name!r} has the inexact "
                                 f"coefficient {coeff}; check-bar needs exact "
                                 "coefficients (write 1/10, not 0.1)")
    dga = check_dga(table)
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.chains):
        chain = sampling.random_chain(table, rng)
        if not barcomplex.b0(barcomplex.b0(chain)).is_zero():
            failures.append(f"trial {trial}: b0^2 != 0")
        if not barcomplex.b1(barcomplex.b1(chain)).is_zero():
            failures.append(f"trial {trial}: b1^2 != 0")
        anti = barcomplex.b0(barcomplex.b1(chain)) + barcomplex.b1(barcomplex.b0(chain))
        if not anti.is_zero():
            failures.append(f"trial {trial}: b0 b1 + b1 b0 != 0")
        form = sampling.random_form(table, rng)
        if not form.d_T().d_T().is_zero():
            failures.append(f"trial {trial}: d_T^2 != 0")
        word = sampling.random_word(table, rng)
        sym = barcomplex.cyclic_symmetrize(barcomplex.BarChain.from_word(table, word))
        if not barcomplex.is_cyclic(barcomplex.b(sym)):
            failures.append(f"trial {trial}: cyclic span not b-stable")
    ok = dga.ok and not failures
    return _emit({
        "table_ok": dga.ok,
        "table_failures": dga.failures,
        "chains": args.chains,
        "failures": failures,
        "ok": ok,
    }, ok)


# -- mckean-singer / bismut-chern -------------------------------------------------


def _load_model(doc):
    table = _load_table(doc["table"])
    c_doc = doc.get("c", {})
    if not isinstance(c_doc, dict):
        raise ValueError(f"'c' must be a JSON object, got {c_doc!r}")
    c_map = {}
    for key, rows in c_doc.items():
        form = table.parse(key)
        if len(form.terms) != 1:
            raise ValueError(f"c keys must be single monomials: {key!r}")
        (mono, coeff), = form.terms.items()
        if coeff != QC(1):
            raise ValueError(f"c keys must carry coefficient one: {key!r}")
        c_map[mono] = _parse_matrix(rows)
    model = fredholm.FredholmModel(table, doc["dim_plus"], doc["dim_minus"],
                                   _parse_matrix(doc["Q"]), c_map)
    p = FormMatrix.parse(table, doc["p"]) if "p" in doc else None
    return table, model, p


def cmd_mckean_singer(args):
    with open(args.model) as fh:
        doc = json.load(fh)
    table, model, p = _load_model(doc)
    if p is None:
        raise ValueError("model document needs an idempotent 'p'")
    rep = fredholm.mckean_singer_check(model, p, t=doc.get("t", 1.0))
    ok = rep.difference < _MCKEAN_SINGER_TOL
    out = rep.as_dict()
    out["ok"] = ok
    out["relations"] = model.relation_report()
    return _emit(out, ok)


def cmd_bismut_chern(args):
    with open(args.model) as fh:
        doc = json.load(fh)
    table = _load_table(doc["table"])
    p = FormMatrix.parse(table, doc["p"])
    chain = fredholm.bismut_chern(p, args.n_max)
    cyclic = barcomplex.is_cyclic(chain)
    parities = {
        (sum(table.mono_degree(m) for m in w) - len(w)) % 2
        for w in chain.terms
    }
    ok = cyclic and parities <= {0}
    return _emit({
        "words": len(chain.terms),
        "chain": chain.to_lists(),
        "cyclic": cyclic,
        "even": parities <= {0},
        "natural_truncation": fredholm.curvature_word_matrix(p).is_zero(),
        "n_max": args.n_max,
        "ok": ok,
    }, ok)


# -- mehler -------------------------------------------------------------------------


def _json_list(doc, key, default):
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON list, got {value!r}")
    return value


def _load_curvature(doc):
    """(d, table, R) of a ``mehler`` or ``localize`` document: the fiber
    dimension ``d``, the ``table`` or the degree-2 ``generators`` over
    ``GeneratorTable(d)``, and the curvature matrix ``R``."""
    d = doc["d"]
    if "table" in doc:
        table = _load_table(doc["table"])
    else:
        table = GeneratorTable(d)
        for name in _json_list(doc, "generators", []):
            table.add_generator(name, 2)
    R = mehler.CurvatureMatrix.from_rows(table, doc["R"])
    if d != R.d:
        raise ValueError(f"fiber dimension {d} does not match the "
                         f"{R.d} x {R.d} curvature matrix")
    return d, table, R


def cmd_mehler(args):
    with open(args.config) as fh:
        doc = json.load(fh)
    _, table, R = _load_curvature(doc)
    taus = [Fraction(str(x)) for x in _json_list(doc, "taus", ["1/4", "1/2", "1"])]
    if not taus:
        raise ValueError("taus must not be empty, got []")
    kappa = mehler.solve_kappa_constant(R=R)
    semigroup_ok = True
    max_residual = 0.0
    for ta in taus:
        for tb in taus:
            lhs = mehler.twisted_convolve(mehler.heat_element(ta, R),
                                          mehler.heat_element(tb, R), R,
                                          kappa_coeff=kappa)
            rhs = mehler.heat_element(ta + tb, R)
            if lhs != rhs:
                semigroup_ok = False
                max_residual = max(max_residual,
                                   mehler.kernel_max_residual(lhs, rhs))
    heat_ok = mehler.heat_equation_residual(R).is_zero()
    ah = mehler.a_hat(R)
    # A-hat is even in R with constant term 1 (its degrees are multiples of
    # four only when every curvature entry is a 2-form)
    ah_ok = (ah.constant_term() == QC(1)
             and mehler.a_hat(mehler.CurvatureMatrix(table, R.d, -R.mat)) == ah)
    ok = semigroup_ok and heat_ok and ah_ok
    return _emit({
        "kappa_constant": str(kappa),
        "semigroup_exact": semigroup_ok,
        "heat_equation_exact": heat_ok,
        "a_hat": ah.canonical_str(),
        "a_hat_normalized": ah_ok,
        "max_residual": max_residual,
        "ok": ok,
    }, ok)


# -- localize --------------------------------------------------------------------------


def cmd_localize(args):
    with open(args.case) as fh:
        doc = json.load(fh)
    d, table, R = _load_curvature(doc)
    word = tuple(table.parse(s) for s in _json_list(doc, "word", []))
    rep = localize.limit_theorem_check(d, R, word)
    return _emit(rep.as_dict(), rep.ok)


# -- torus -------------------------------------------------------------------------------


_FOURIER_MODE = re.compile(r"\s*([+-]?[0-9]+)\s*,\s*([+-]?[0-9]+)\s*")


def _load_theta(doc):
    """The Fourier data of a ``--theta`` document: a JSON object from
    ``"q1,q2"`` keys, two comma-separated integers, to coefficients."""
    if not isinstance(doc, dict):
        raise ValueError(f"a theta document must be a JSON object, got {doc!r}")
    theta = {}
    for key, val in doc.items():
        match = _FOURIER_MODE.fullmatch(key)
        if match is None:
            raise ValueError(f"theta keys must be two comma-separated integers "
                             f"\"q1,q2\", got {key!r}")
        mode = (int(match[1]), int(match[2]))
        if mode in theta:
            raise ValueError(f"theta key {key!r} repeats the mode {mode}")
        theta[mode] = _parse_complex(val)
    return theta


def cmd_torus(args):
    model = torus.TorusModel(L1=args.L1, L2=args.L2, K=args.K, spin=args.spin)
    if args.theta:
        with open(args.theta) as fh:
            theta = _load_theta(json.load(fh))
    else:
        theta = {(0, 0): args.beta}
    grid = [float(x) for x in args.t_grid.split(",")]
    rep = torus.convergence_report(model, theta, grid)
    max_abs, max_slope = torus.supertrace_constancy(model)
    vacuous = all(r.value == 0 and r.target == 0 for r in rep.rows)
    ok = not vacuous and all(r.relative < _TORUS_TOL for r in rep.rows) and max_abs < 1e-10
    out = rep.as_dict()
    out["supertrace_max"] = max_abs
    out["supertrace_slope"] = max_slope
    if vacuous:
        out["reason"] = ("vacuous check: every row compares 0 with a target of 0; "
                         "theta needs a nonzero (0, 0) mode")
    out["ok"] = ok
    return _emit(out, ok)


# -- parser ---------------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chernloc",
        description="exact algebra and spectral checks for heat-kernel "
                    "localization of Chern characters")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("check-bar", help="randomized bar-complex invariants")
    pb.add_argument("table", help="plain-text generator table")
    pb.add_argument("--chains", type=int, default=200)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(fn=cmd_check_bar)

    pm = sub.add_parser("mckean-singer", help="idempotent heat-trace comparison")
    pm.add_argument("model", help="JSON model document")
    pm.set_defaults(fn=cmd_mckean_singer)

    pc = sub.add_parser("bismut-chern", help="idempotent cyclic chain")
    pc.add_argument("model", help="JSON model document (table and p)")
    pc.add_argument("--n-max", type=int, default=3)
    pc.set_defaults(fn=cmd_bismut_chern)

    ph = sub.add_parser("mehler", help="Gaussian-kernel identity suites")
    ph.add_argument("config", help="JSON with d, generators, R, taus")
    ph.set_defaults(fn=cmd_mehler)

    pl = sub.add_parser("localize", help="small-time limit check")
    pl.add_argument("case", help="JSON case document")
    pl.set_defaults(fn=cmd_localize)

    pt = sub.add_parser("torus", help="flat-torus convergence report")
    pt.add_argument("--L1", type=float, default=2 * 3.141592653589793)
    pt.add_argument("--L2", type=float, default=2 * 3.141592653589793)
    pt.add_argument("-K", type=int, default=64)
    pt.add_argument("--spin", default="pp", choices=["pp", "pa", "ap", "aa"])
    pt.add_argument("--t-grid", default="0.2,0.1,0.05")
    pt.add_argument("--beta", type=float, default=1.0)
    pt.add_argument("--theta", help="JSON Fourier data {\"q1,q2\": coeff}")
    pt.set_defaults(fn=cmd_torus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        _emit({"ok": False, "error": f"{type(exc).__name__}: {exc}"}, False)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
