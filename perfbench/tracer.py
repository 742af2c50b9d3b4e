"""Outside-in tracer: wrappers around the public functions of every mldeg module.

The engine is not edited.  ``Tracer.install`` replaces each public function of
the layer modules below with a wrapper, in every mldeg namespace that bound
it, because each module binds its own names (``from .poly import resultant``).
A wrapper records one span per call in memory: name, start, end, parent span,
job id, the exception type if the call raised, and for a few functions a
small summary of arguments and result.  Spans are written out at the end of
the pass, and the per-layer metrics are computed from them.  Spans are timed
with the clock the worker passes in, which leaves out its host-speed samples.

Hot kernel entries are counted and timed, but get no span: a span per call
would cost more than the call.  Their time stays in the self time of the
spanned caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict

MODULES = ("reaction", "model", "poly", "roots", "critical", "curve", "mle", "catalog", "cli")
UNSPANNED = ("poly.exact_divide",)
GCD_GROUP = ("poly.univariate_gcd", "poly.gcd_degree_in", "poly.squarefree_decomposition")


def _coeff_bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _resultant_info(args, result):
    f, g, name = args[:3]
    return {
        "sylvester_dim": f.degree_in(name) + g.degree_in(name),
        "out_terms": len(result.term_map()),
        "out_bits": max((_coeff_bits(c) for c in result.term_map().values()), default=0),
    }


# Function name -> summary of (args, result), stored with the span.
PROBES = {
    "poly.resultant": _resultant_info,
    "roots.aberth_roots": lambda args, result: {"degree": max(len(args[0]) - 1, 0)},
    "curve.smoothness_check": lambda args, result: {"status": result.status},
    "curve.count_critical_points_variety": lambda args, result: {"kept": result[0]},
    "critical.faithful_report": lambda args, result: {"generic_ke": args[0].ke.is_generic},
}


class Tracer:
    """Spans of one pass.  ``job`` is set by the caller before each job."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, job, error, info]
        self.stack: list[int] = []
        self.job: int | None = None
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])  # unspanned: calls, s

    def _spanned(self, name, fn):
        spans, stack, probe, clock = self.spans, self.stack, PROBES.get(name), self.clock

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[6] = probe(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        total, clock = self.totals[name], self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += clock() - start

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever bound."""
        package = importlib.import_module("mldeg")
        modules = {name: importlib.import_module(f"mldeg.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counted if name in UNSPANNED else self._spanned
                wrapper = wrap(name, fn)
                for namespace in namespaces:
                    if vars(namespace).get(attr) is fn:
                        setattr(namespace, attr, wrapper)
        mpoly = modules["poly"].MPoly
        mul = self._counted("poly.MPoly.mul", mpoly.__mul__)
        mpoly.__mul__ = mpoly.__rmul__ = mul

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, job, error, info) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "job": job, "error": error, "info": info,
                }) + "\n")
            for name, (calls, seconds) in sorted(self.totals.items()):
                out.write(json.dumps({"name": name, "calls": calls, "s": seconds}) + "\n")

    def metrics(self, ref_scale: float) -> dict:
        """Per-layer metrics of the pass, by name: ``(value, unit)``.

        Times are in reference seconds: measured seconds × ``ref_scale``, the
        pass's reference-to-measured ratio (see worker.SpeedProbe).
        """
        spans = self.spans
        by_name = defaultdict(list)
        child_s = [0.0] * len(spans)
        for index, (name, start, end, parent, *_) in enumerate(spans):
            by_name[name].append(index)
            if parent >= 0:
                child_s[parent] += end - start

        def duration(i):
            return spans[i][2] - spans[i][1]

        def ancestor(i, names):
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            return parent

        def calls(name):
            return len(by_name[name])

        def inclusive(*names):
            # outermost spans only, so recursion and nesting inside the group count once
            return sum(duration(i) for name in names for i in by_name[name]
                       if ancestor(i, names) < 0)

        def self_s(name):
            return sum(duration(i) - child_s[i] for i in by_name[name])

        def info(name, key):
            return [spans[i][6][key] for i in by_name[name] if spans[i][6] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        def per_parent(child, parent, keep=lambda i: True):
            # child calls per parent call, over parents that made at least one
            owners = defaultdict(int)
            for i in by_name[child]:
                owner = ancestor(i, (parent,))
                if owner >= 0 and keep(owner):
                    owners[owner] += 1
            return ratio(sum(owners.values()), len(owners))

        def numeric_ke(i):
            return spans[i][6] is not None and not spans[i][6]["generic_ke"]

        report = "critical.faithful_report"
        smooth_status = info("curve.smoothness_check", "status")
        mle = "mle.maximize_likelihood"
        metrics = {
            "poly.resultant.calls": (calls("poly.resultant"), "count"),
            "poly.resultant.s": (inclusive("poly.resultant"), "s"),
            "poly.resultant.self_s": (self_s("poly.resultant"), "s"),
            "poly.resultant.sylvester_dim_max": (
                max(info("poly.resultant", "sylvester_dim"), default=0), "count"),
            "poly.resultant.out_terms": (sum(info("poly.resultant", "out_terms")), "count"),
            "poly.resultant.out_bits_max": (max(info("poly.resultant", "out_bits"), default=0), "bits"),
            "poly.determinant_fraction_free.calls": (calls("poly.determinant_fraction_free"), "count"),
            "poly.determinant_fraction_free.s": (inclusive("poly.determinant_fraction_free"), "s"),
            "poly.exact_divide.calls": (self.totals["poly.exact_divide"][0], "count"),
            "poly.MPoly.mul.calls": (self.totals["poly.MPoly.mul"][0], "count"),
            "poly.gcd.s": (inclusive(*GCD_GROUP), "s"),
            "critical.faithful_report.calls": (calls(report), "count"),
            "critical.faithful_report.s": (inclusive(report), "s"),
            "critical.faithful_report.self_s": (self_s(report), "s"),
            "critical.build_critical_system.s": (inclusive("critical.build_critical_system"), "s"),
            "critical.eliminate.calls": (calls("critical.eliminate"), "count"),
            "critical.eliminate.s": (inclusive("critical.eliminate"), "s"),
            "critical.eliminate.per_report": (per_parent("critical.eliminate", report), "ratio"),
            "critical.eliminate.per_report_numeric_ke": (
                per_parent("critical.eliminate", report, numeric_ke), "ratio"),
            "curve.smoothness_check.calls": (calls("curve.smoothness_check"), "count"),
            "curve.smoothness_check.s": (inclusive("curve.smoothness_check"), "s"),
            "curve.smoothness_check.decided_ratio": (
                ratio(sum(s in ("smooth", "singular") for s in smooth_status),
                      calls("curve.smoothness_check")), "ratio"),
            "curve.arrangement_count.s": (inclusive("curve.arrangement_count"), "s"),
            "curve.curve_ml_report.s": (inclusive("curve.curve_ml_report"), "s"),
            "curve.variety_critical_system.calls": (calls("curve.variety_critical_system"), "count"),
            "curve.variety_critical_system.per_mle": (
                per_parent("curve.variety_critical_system", mle), "ratio"),
            "curve.count_critical_points_variety.s": (
                inclusive("curve.count_critical_points_variety"), "s"),
            "curve.count_critical_points_variety.self_s": (
                self_s("curve.count_critical_points_variety"), "s"),
            "curve.count_critical_points_variety.kept": (
                sum(info("curve.count_critical_points_variety", "kept")), "count"),
            "roots.aberth_roots.calls": (calls("roots.aberth_roots"), "count"),
            "roots.aberth_roots.s": (inclusive("roots.aberth_roots"), "s"),
            "roots.aberth_roots.degree_sum": (sum(info("roots.aberth_roots", "degree")), "count"),
            "roots.aberth_roots.errors": (
                sum(spans[i][5] is not None for i in by_name["roots.aberth_roots"]), "count"),
            "roots.complex_roots.s": (inclusive("roots.complex_roots"), "s"),
            "mle.maximize_likelihood.calls": (calls(mle), "count"),
            "mle.maximize_likelihood.s": (inclusive(mle), "s"),
            "mle.maximize_likelihood.self_s": (self_s(mle), "s"),
            "mle.maximize_likelihood.no_optimum": (
                sum(spans[i][5] == "NoPositiveCriticalPointError" for i in by_name[mle]), "count"),
            "catalog.evaluate_entry.calls": (calls("catalog.evaluate_entry"), "count"),
            "catalog.evaluate_entry.max_s": (
                max((duration(i) for i in by_name["catalog.evaluate_entry"]), default=0.0), "s"),
            "reaction.parse_reaction.s": (inclusive("reaction.parse_reaction"), "s"),
            "model.build_model.s": (inclusive("model.build_model"), "s"),
            "model.build_parameterization.s": (inclusive("model.build_parameterization"), "s"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
        }
        return {name: (value * ref_scale, "ref_s") if unit == "s" else (value, unit)
                for name, (value, unit) in metrics.items()}
