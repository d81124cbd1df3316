"""Layer spans for a traced benchmark pass, recorded from outside binomax.

``Tracer.install`` replaces every public function of the six layer modules
with a wrapper that records one span per call: id, name, start, end, parent
id, the exception it raised (if any) and, for a few functions, the work the
call did (rows, integrand evaluations, random draws).  A function is
replaced in every one of those module namespaces that holds it, because
callers look names up where they imported them (``cli`` and ``montecarlo``
import ``eval_basic_rhs`` and friends by name).  Jet arithmetic runs about
a million times per pass, so its operators are counted, not spanned.

Spans stay in memory until ``Tracer.write``; ``layer_metrics`` turns them
into the per-layer metrics in the parent process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "identities", "jets", "exact", "quadrature", "montecarlo")

IDENTITY_FUNCTIONS = (
    "eval_basic_lhs",
    "eval_basic_rhs",
    "eval_squared_identity",
    "eval_general_m",
    "eval_inversion_first",
    "eval_inversion_second",
    "eval_derivative_identity",
    "tail_prob_via_conditioning",
    "tail_prob_via_derivatives",
)
F_JETS = ("identities.eval_f_jet", "identities.eval_g_jet")
SAMPLERS = ("montecarlo.sample_max_exp", "montecarlo.sample_sum_exp", "montecarlo.sample_gamma_integer")
ESTIMATORS = ("montecarlo.estimate_tail_prob", "montecarlo.empirical_laplace")
EXACT_REFERENCES = ("identities.tail_prob_exact", "identities.eval_basic_rhs")
ROUTES = {"cdf": "quadrature.laplace_via_cdf_quadrature",
          "density": "quadrature.laplace_via_density_quadrature"}

# Jet operators and the kind they are counted under.  __radd__ and __rmul__
# are aliases of __add__ and __mul__, so both names are patched; __rtruediv__
# delegates to __truediv__ and is counted there.
JET_OPERATORS = (("__add__", "add"), ("__radd__", "add"),
                 ("__mul__", "mul"), ("__rmul__", "mul"), ("__truediv__", "div"))


def _draws(count_arg):
    def work(args, result):
        size = args["size"]
        return (1 if size is None else size) * args[count_arg]
    return work


def _route(args, result):
    return {"s": float(args["s"]), "n": args["n"], "tol": float(args["tol"]),
            "value": result.value, "estimated_error": result.estimated_error,
            "evaluations": result.evaluations}


# Work recorded on a span, from the call's bound arguments and its result.
WORK = {
    "identities.sweep": lambda args, result: len(result),
    ROUTES["cdf"]: _route,
    ROUTES["density"]: _route,
    "montecarlo.sample_max_exp": _draws("n"),
    "montecarlo.sample_sum_exp": _draws("n"),
    "montecarlo.sample_gamma_integer": _draws("m"),
}


class Tracer:
    """Span recorder for one process; spans are lists
    ``[id, name, start, end, parent, error, work]``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.jet_ops = Counter()  # (kind, order, other operand is a jet) -> calls

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[3] = clock()
                stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[6] = work(bound.arguments, result)
            return result

        return traced

    def _counted(self, kind, op):
        counts = self.jet_ops

        @functools.wraps(op)
        def counted(a, b):
            counts[(kind, len(a.coeffs) - 1, isinstance(b, type(a)))] += 1
            return op(a, b)

        return counted

    def install(self):
        modules = [importlib.import_module(f"binomax.{layer}") for layer in LAYERS]
        owners = {module.__name__ for module in modules}
        wrapped = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ in owners and id(obj) not in wrapped):
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapped[id(obj)] = self.wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        jet = importlib.import_module("binomax.jets").Jet
        for attr, kind in JET_OPERATORS:
            setattr(jet, attr, self._counted(kind, vars(jet)[attr]))

    def write(self, path):
        doc = {"spans": self.spans,
               "jet_ops": [[kind, order, jet, n] for (kind, order, jet), n in self.jet_ops.items()]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(doc, quadrature_exact, max_bits):
    """Per-layer metrics of one traced pass.

    ``quadrature_exact`` maps (s, n) to the exact value from the quadrature
    report rows; ``max_bits`` is the largest numerator or denominator bit
    length in the pass's rows.  Ratios whose base is 0 (a layer the workload
    does not use) are reported as 0.
    """
    spans = doc["spans"]
    covered = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        sid, name, start, end = span[:4]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - covered[sid]
        by_name[name].append(span)

    m = {
        "cli.invocations": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "identities.rows": sum(span[6] for span in by_name["identities.sweep"] if span[6] is not None),
        "identities.sweep.self_s": self_s["identities.sweep"],
    }
    for fn in IDENTITY_FUNCTIONS:
        m[f"identities.{fn}.calls"] = calls[f"identities.{fn}"]
        m[f"identities.{fn}.self_s"] = self_s[f"identities.{fn}"]

    ops, coeff_mults = Counter(), 0
    for kind, order, jet_operand, n in doc["jet_ops"]:
        ops[kind] += n
        # A jet product or quotient of order K runs the triangular Cauchy
        # loop; scaling by a number multiplies each of the K+1 coefficients.
        if kind == "div" or (kind == "mul" and jet_operand):
            coeff_mults += (order + 1) * (order + 2) // 2 * n
        elif kind == "mul":
            coeff_mults += (order + 1) * n
    f_jet_s = sum(total[name] for name in F_JETS)
    m.update({
        "jets.f_jet.calls": sum(calls[name] for name in F_JETS),
        "jets.f_jet.total_s": f_jet_s,
        "jets.ops.add": ops["add"],
        "jets.ops.mul": ops["mul"],
        "jets.ops.div": ops["div"],
        "jets.ops": sum(ops.values()),
        "jets.coeff_mults": coeff_mults,
        "jets.ns_per_coeff_mult": _ratio(f_jet_s * 1e9, coeff_mults),
        "exact.format_rational.calls": calls["exact.format_rational"],
        "exact.format_rational.total_s": total["exact.format_rational"],
        "exact.max_bits": max_bits,
    })

    evaluations = certified = routes = not_met = 0
    for route, name in ROUTES.items():
        m[f"quadrature.{route}.calls"] = calls[name]
        m[f"quadrature.{route}.total_s"] = total[name]
        for span in by_name[name]:
            routes += 1
            if span[5] == "ToleranceNotMet":
                not_met += 1
            work = span[6]
            if work is None:
                continue
            evaluations += work["evaluations"]
            exact = quadrature_exact.get((work["s"], work["n"]))
            if exact is not None and abs(work["value"] - exact) <= work["estimated_error"] + work["tol"]:
                certified += 1
    quad_s = sum(total[name] for name in ROUTES.values())
    m.update({
        "quadrature.evaluations": evaluations,
        "quadrature.evals_per_s": _ratio(evaluations, quad_s),
        "quadrature.cert_ok_ratio": _ratio(certified, routes),
        "quadrature.tolerance_not_met": not_met,
    })

    sample_s = sum(total[name] for name in SAMPLERS)
    draws = sum(span[6] for name in SAMPLERS for span in by_name[name] if span[6] is not None)
    estimators = {span[0] for name in ESTIMATORS for span in by_name[name]}
    m.update({
        "montecarlo.sample.calls": sum(calls[name] for name in SAMPLERS),
        "montecarlo.sample.total_s": sample_s,
        "montecarlo.draws": draws,
        "montecarlo.draws_per_s": _ratio(draws, sample_s),
        "montecarlo.ks.calls": calls["montecarlo.ks_two_sample"],
        "montecarlo.ks.total_s": total["montecarlo.ks_two_sample"],
        "montecarlo.estimate.self_s": sum(self_s[name] for name in ESTIMATORS),
        "montecarlo.exact_ref_s": sum((span[3] - span[2] for name in EXACT_REFERENCES
                                       for span in by_name[name] if span[4] in estimators), 0.0),
    })
    return m
