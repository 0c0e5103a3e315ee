"""Layer tracing installed from outside the program.

``Tracer.install()`` replaces the public functions listed in ``SPANS`` by
wrappers, in every loaded ``crlab`` module that holds a reference to them,
so calls made through ``from .x import f`` names are traced too.
``uninstall()`` puts the originals back.  No file of the program changes.

Each wrapped call records a span: name, start, end, parent span and case id,
kept in memory in flat arrays and written out by ``write_spans``.  A layer's
self time is its span's duration minus the durations of its child spans
(calls are nested on one thread, so children never overlap).  Scalar
arithmetic is far too frequent for spans; it is counted instead.

Counts are exact and repeat across runs.  Times from a traced run are
inflated by the wrappers; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from functools import update_wrapper

# (metric name, module, attribute).  "Class.method" attributes wrap a method.
# variations_from_jets lives in crlab.variation but is the entry point of the
# deformation jet route, so it is reported under the deformation layer.
SPANS = (
    ("integration.inner", "crlab.integration", "inner"),
    ("integration.integrate", "crlab.integration", "integrate"),
    ("variation.assemble_form", "crlab.variation", "assemble_form"),
    ("variation.classify", "crlab.variation", "classify"),
    ("variation.first_variation", "crlab.variation", "first_variation"),
    ("variation.second_variation", "crlab.variation", "second_variation"),
    ("variation.pluriharmonic_basis", "crlab.variation", "pluriharmonic_basis"),
    ("variation.weighted_gradient_pairing", "crlab.variation", "weighted_gradient_pairing"),
    ("variation.second_variation_decomposition", "crlab.variation",
     "second_variation_decomposition"),
    ("variation.drift_square_form", "crlab.variation", "drift_square_form"),
    ("deformation.variations_from_jets", "crlab.variation", "variations_from_jets"),
    ("deformation.torsion", "crlab.deformation", "torsion"),
    ("deformation.rossi", "crlab.deformation", "rossi"),
    ("operators.apply", "crlab.operators", "LinOp.__call__"),
    ("operators.common_eigenvalue", "crlab.operators", "common_eigenvalue"),
    ("operators.bochner_residual", "crlab.operators", "bochner_residual"),
    ("harmonics.basis", "crlab.harmonics", "basis"),
    ("harmonics.canonicalize", "crlab.harmonics", "canonicalize"),
    ("harmonics.sphere_equal", "crlab.harmonics", "sphere_equal"),
    ("harmonics.be_check", "crlab.harmonics", "be_check"),
    ("spherepoly.mul", "crlab.spherepoly", "SpherePoly.__mul__"),
    ("parsing.parse_poly", "crlab.parsing", "parse_poly"),
    ("report.render", "crlab.report", "Report.render"),
    ("cli.main", "crlab.cli", "main"),
)

# GaussianRational add/sub/mul/div, counted as scalars.ops.
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__")


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(module, cls_name)
        return cls, method, cls.__dict__[method]
    return module, attribute, getattr(module, attribute)


def _bits(value) -> int:
    re, im = value.re, value.im
    return max(re.numerator.bit_length(), re.denominator.bit_length(),
               im.numerator.bit_length(), im.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.current = -1
        self.case = -1
        self.scalar = [0, 0]          # ops, largest bit length
        self.inner_nonzero = 0
        self.basis_keys: set = set()
        self.basis_hits = 0
        self.form_entries = 0
        self.form_nonzero = 0
        self.terms_max = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name_id: int, fn, on_result=None):
        names, parents, cases = self.span_name, self.span_parent, self.span_case
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            cases.append(tracer.case)
            starts.append(0)
            ends.append(0)
            tracer.current = idx
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    def _counted(self, fn):
        stats = self.scalar

        def wrapper(a, b):
            result = fn(a, b)
            stats[0] += 1
            if result is not NotImplemented:
                bits = _bits(result)
                if bits > stats[1]:
                    stats[1] = bits
            return result

        return update_wrapper(wrapper, fn)

    def _on_inner(self, args, kwargs, result):
        if not result.is_zero():
            self.inner_nonzero += 1

    def _on_basis(self, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self.basis_keys:
            self.basis_hits += 1
        else:
            self.basis_keys.add(key)

    def _on_form(self, args, kwargs, form):
        rows = form.entries
        self.form_entries += sum(len(row) for row in rows)
        self.form_nonzero += sum(1 for row in rows for v in row if not v.is_zero())

    def _on_mul(self, args, kwargs, result):
        if result is not NotImplemented and len(result) > self.terms_max:
            self.terms_max = len(result)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        hooks = {"integration.inner": self._on_inner, "harmonics.basis": self._on_basis,
                 "variation.assemble_form": self._on_form, "spherepoly.mul": self._on_mul}
        replacements: dict[int, object] = {}
        for name_id, (name, module_name, attribute) in enumerate(SPANS):
            owner, attr, original = _resolve(module_name, attribute)
            wrapper = self._span(name_id, original, hooks.get(name))
            replacements[id(original)] = (original, wrapper)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
        scalar_cls = importlib.import_module("crlab.scalars").GaussianRational
        for attr in SCALAR_OPS:
            self._patch(scalar_cls, attr, self._counted(scalar_cls.__dict__[attr]))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "crlab" or n.startswith("crlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def aggregate(self) -> dict:
        """Per-layer counts and self times (seconds) over every recorded span."""
        n = len(self.span_name)
        child = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_ns[k] += ends[i] - starts[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_ns[k] / 1e9
        by_name = dict(zip(self.names, calls))
        out["integration.inner.nonzero_ratio"] = _ratio(self.inner_nonzero,
                                                         by_name["integration.inner"])
        out["harmonics.basis.hit_ratio"] = _ratio(self.basis_hits, by_name["harmonics.basis"])
        out["variation.form_entries"] = self.form_entries
        out["variation.form_nonzero_ratio"] = _ratio(self.form_nonzero, self.form_entries)
        out["spherepoly.terms_max"] = self.terms_max
        out["scalars.ops"] = self.scalar[0]
        out["scalars.coeff_bits_max"] = self.scalar[1]
        return out

    def write_spans(self, handle, case_ids: list[str]):
        """Append every span as a tab-separated line: id parent case name start end."""
        for i in range(len(self.span_name)):
            case = self.span_case[i]
            handle.write(f"{i}\t{self.span_parent[i]}\t"
                         f"{case_ids[case] if case >= 0 else 'setup'}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\n")


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 when there is nothing to divide."""
    return part / whole if whole else 0.0
