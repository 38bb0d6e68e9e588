"""Per-layer tracing from outside the library.

The tracer wraps named callables of ``chernloc`` for the length of a traced
run and restores every binding afterwards.  A function is patched in every
``chernloc`` module that binds it (``localize`` imports ``heat_element``
from ``mehler``, for example); a method is patched under every name its
class binds it to (``QC.__rmul__`` is ``QC.__mul__``).

Most callables get a span: name, start, end, parent span and op id.  A
span's self time is its duration minus the time covered by its child spans.
Aggregates are kept for every span; the span records themselves are kept in
memory up to a cap and written out when the run ends.  ``QC`` operations
take microseconds each, so they are counted, not spanned.

A callable the tracer cannot find is reported as missing (value ``None``),
never as zero.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

MAX_SPANS = 20000

# (prefix, module, attribute, kind): kind is "span", "qc" (counted QC
# operation) or "count" (counted, no span).
TARGETS = (
    ("scalars.qc_mul", "scalars", "QC.__mul__", "qc"),
    ("scalars.qc_add", "scalars", "QC.__add__", "qc"),
    ("multiform.mul", "multiform", "FormElement.__mul__", "span"),
    ("multiform.d_T", "multiform", "FormElement.d_T", "span"),
    ("multiform.mul_monomials", "multiform", "GeneratorTable.mul_monomials", "span"),
    ("barcomplex.b0", "barcomplex", "b0", "span"),
    ("barcomplex.b1", "barcomplex", "b1", "span"),
    ("barcomplex.cyclic_symmetrize", "barcomplex", "cyclic_symmetrize", "span"),
    ("barcomplex.from_words", "barcomplex", "BarChain.from_words", "span"),
    ("barcomplex.chain_add", "barcomplex", "BarChain.__add__", "span"),
    ("barcomplex.eval_chain", "barcomplex", "Cochain.eval_chain", "span"),
    ("fredholm.expm", "fredholm", "_expm", "span"),
    ("fredholm.mckean_singer_check", "fredholm", "mckean_singer_check", "span"),
    ("fredholm.curvature_word_matrix", "fredholm", "curvature_word_matrix", "span"),
    ("fredholm.bismut_chern", "fredholm", "bismut_chern", "span"),
    ("formmatrix.matmul", "formmatrix", "FormMatrix.__matmul__", "span"),
    ("formmatrix.mat_exp_nilpotent", "formmatrix", "mat_exp_nilpotent", "span"),
    ("formmatrix.det_leibniz", "formmatrix", "det_leibniz", "span"),
    ("mehler.heat_element", "mehler", "heat_element", "span"),
    ("mehler.twisted_convolve", "mehler", "twisted_convolve", "span"),
    ("mehler.heat_equation_residual", "mehler", "heat_equation_residual", "span"),
    ("mehler.a_hat", "mehler", "a_hat", "span"),
    ("mehler.solve_kappa_constant", "mehler", "solve_kappa_constant", "span"),
    ("localize.limit_theorem_check", "localize", "limit_theorem_check", "span"),
    ("clifford.quantize", "clifford", "quantize", "span"),
    ("clifford.symbol", "clifford", "symbol", "span"),
    ("clifford.berezin_str", "clifford", "berezin_str", "span"),
    ("clifford.mul", "clifford", "CliffordElement.__mul__", "span"),
    ("torus.convergence_report", "torus", "convergence_report", "span"),
    ("torus.supertrace_constancy", "torus", "supertrace_constancy", "span"),
    ("torus.mode_energies", "torus", "TorusModel.mode_energies", "count"),
)

# Reported per-layer metrics: (name, unit).  The order is the print order.
PER_LAYER = (
    ("scalars.qc_mul.calls", "count"),
    ("scalars.qc_add.calls", "count"),
    ("scalars.qc_noninteger_ratio", "ratio"),
    ("scalars.qc_inexact.calls", "count"),
    *((f"multiform.{n}.{m}", u) for n in ("mul", "d_T", "mul_monomials")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    *((f"barcomplex.{n}.{m}", u)
      for n in ("b0", "b1", "cyclic_symmetrize", "from_words", "chain_add", "eval_chain")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("barcomplex.words_out", "count"),
    ("fredholm.expm.calls", "count"),
    ("fredholm.expm.self_s", "s"),
    ("fredholm.expm.max_side", "rows"),
    ("fredholm.expm.flops_computed", "flop"),
    ("fredholm.mckean_singer_check.self_s", "s"),
    ("fredholm.curvature_word_matrix.self_s", "s"),
    ("fredholm.bismut_chern.self_s", "s"),
    ("fredholm.block_cache_entries", "count"),
    *((f"formmatrix.{n}.{m}", u) for n in ("matmul", "mat_exp_nilpotent", "det_leibniz")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    *((f"mehler.{n}.{m}", u) for n in ("heat_element", "twisted_convolve")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("mehler.heat_equation_residual.self_s", "s"),
    ("mehler.a_hat.self_s", "s"),
    ("mehler.solve_kappa_constant.self_s", "s"),
    ("localize.limit_theorem_check.calls", "count"),
    ("localize.limit_theorem_check.self_s", "s"),
    ("localize.patterns", "count"),
    ("clifford.quantize.self_s", "s"),
    ("clifford.symbol.self_s", "s"),
    ("clifford.berezin_str.self_s", "s"),
    ("clifford.mul.calls", "count"),
    ("clifford.mul.self_s", "s"),
    ("torus.convergence_report.self_s", "s"),
    ("torus.supertrace_constancy.self_s", "s"),
    ("torus.modes_summed", "count"),
    ("torus.bytes_computed", "B"),
    ("trace.ops", "count"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics whose value comes from one target's hook rather than its span.
_DERIVED = {
    "scalars.qc_noninteger_ratio": "scalars.qc_mul",
    "scalars.qc_inexact.calls": "scalars.qc_mul",
    "barcomplex.words_out": "barcomplex.b0",
    "fredholm.expm.max_side": "fredholm.expm",
    "fredholm.expm.flops_computed": "fredholm.expm",
    "localize.patterns": "localize.limit_theorem_check",
    "torus.modes_summed": "torus.mode_energies",
    "torus.bytes_computed": "torus.mode_energies",
}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "chernloc" or name.startswith("chernloc."))]


class Tracer:
    """Context manager: patches TARGETS on entry, restores on exit."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.missing = set()
        self.spans = []
        self.dropped = 0
        self.op = None
        self._stack = []          # open spans: [id, start, child_time]
        self._ids = itertools.count()
        self._patched = []        # (owner, name, original)
        self._origin = time.perf_counter()

    # -- patching -------------------------------------------------------------
    def __enter__(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
        for prefix, modname, attr, kind in TARGETS:
            if not self._patch(prefix, mods.get(modname), attr, kind):
                self.missing.add(prefix)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, prefix, module, attr, kind):
        if module is None:
            return False
        clsname, _, meth = attr.rpartition(".")
        if clsname:
            cls = getattr(module, clsname, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            if raw is None:
                return False
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(prefix, func, kind, cls)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            for name, value in list(vars(cls).items()):
                if value is raw:
                    setattr(cls, name, wrapped)
                    self._patched.append((cls, name, raw))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = self._wrap(prefix, original, kind, None)
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._patched.append((mod, name, original))
        return True

    def _wrap(self, prefix, fn, kind, owner):
        if kind == "qc":
            return self._counted_qc(prefix, fn, owner)
        if kind == "count":
            return self._counted(prefix, fn)
        return self._spanned(prefix, fn)

    # -- wrappers ---------------------------------------------------------------
    def _spanned(self, name, fn):
        stack, spans, clock, ids = self._stack, self.spans, time.perf_counter, self._ids
        self_s, calls = self.self_s, self.calls
        pre, post = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if len(spans) < MAX_SPANS:
                    spans.append((sid, name, frame[1], end, parent, self.op))
                else:
                    self.dropped += 1
            if post is not None:
                post(self, result)
            return result

        return wrapper

    def _counted_qc(self, name, fn, qc_type):
        counts = self.counts

        def wrapper(a, b):
            result = fn(a, b)
            if result is NotImplemented:
                return result
            counts[name] += 1
            if isinstance(result, qc_type):
                if (getattr(result.re, "denominator", 1) != 1
                        or getattr(result.im, "denominator", 1) != 1):
                    counts["qc_noninteger"] += 1
            else:
                counts["qc_inexact"] += 1
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        _, post = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if post is not None:
                post(self, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------------
    def metrics(self, extra):
        """Every PER_LAYER metric as {"value", "unit"}; ``extra`` supplies the
        ones the runner measures (None marks a missing value)."""
        qc_total = self.counts["scalars.qc_mul"] + self.counts["scalars.qc_add"]
        values = {
            "scalars.qc_mul.calls": self.counts["scalars.qc_mul"],
            "scalars.qc_add.calls": self.counts["scalars.qc_add"],
            "scalars.qc_noninteger_ratio":
                self.counts["qc_noninteger"] / qc_total if qc_total else 0.0,
            "scalars.qc_inexact.calls": self.counts["qc_inexact"],
            "barcomplex.words_out": self.counts["words_out"],
            "fredholm.expm.max_side": self.maxima["expm_side"],
            "fredholm.expm.flops_computed": self.counts["expm_flops"],
            "localize.patterns": self.counts["patterns"],
            "torus.modes_summed": self.counts["modes"],
            "torus.bytes_computed": self.counts["mode_bytes"],
        }
        values.update(extra)
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
                source = _DERIVED.get(name)
            else:
                prefix, _, stat = name.rpartition(".")
                source = prefix
                value = self.calls[prefix] if stat == "calls" else self.self_s[prefix]
            if source in self.missing or name in self.missing:
                value = None
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path, header):
        """Kept spans as JSON lines, times in seconds from tracer creation."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                     spans_dropped=self.dropped)) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - self._origin,
                                     "end": end - self._origin,
                                     "parent": parent, "op": op}) + "\n")


# -- hooks: (pre(tracer, args), post(tracer, result)) per target ------------------


def _expm_pre(tracer, args):
    side = args[0].shape[0]
    tracer.counts["expm_flops"] += side ** 3
    tracer.maxima["expm_side"] = max(tracer.maxima["expm_side"], side)


def _words_post(tracer, chain):
    tracer.counts["words_out"] += len(chain)


def _patterns_post(tracer, report):
    patterns = getattr(report, "patterns", None)
    if patterns is None:
        tracer.missing.add("localize.patterns")
    else:
        tracer.counts["patterns"] += patterns


def _modes_post(tracer, energies):
    tracer.counts["modes"] += energies.size
    tracer.counts["mode_bytes"] += energies.nbytes


_HOOKS = {
    "fredholm.expm": (_expm_pre, None),
    "barcomplex.b0": (None, _words_post),
    "barcomplex.b1": (None, _words_post),
    "barcomplex.cyclic_symmetrize": (None, _words_post),
    "localize.limit_theorem_check": (None, _patterns_post),
    "torus.mode_energies": (None, _modes_post),
}
