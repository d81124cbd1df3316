"""The package namespace is the README's quick tour, and the tour runs."""

import ast
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import binomax
from binomax import errors
from binomax.errors import NonPositiveS
from binomax.montecarlo import (
    RngConfig,
    empirical_laplace,
    sample_gamma_integer,
)
from binomax.quadrature import laplace_via_cdf_quadrature

README = Path(__file__).resolve().parents[1] / "README.md"

QUICK_TOUR_NAMES = {
    "IdentityId", "IdentityParams", "VerificationReport", "sweep", "verify",
    "eval_basic_lhs", "eval_basic_rhs", "eval_f_jet", "tail_prob_exact",
    "laplace_via_density_quadrature", "RngConfig", "estimate_tail_prob",
}


def _quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_public_names_are_the_quick_tour():
    assert set(binomax.__all__) == QUICK_TOUR_NAMES
    assert len(binomax.__all__) == len(QUICK_TOUR_NAMES)
    for name in binomax.__all__:
        assert getattr(binomax, name).__module__.startswith("binomax.")


def test_readme_quick_tour_runs_and_matches_its_comments():
    code = _quick_tour()
    lines = code.splitlines()
    namespace: dict = {}
    compared = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if comment.startswith(("Fraction(", "True", "False")):  # exact values
            assert value == eval(comment, {"Fraction": Fraction}), comment
            compared += 1
    assert compared == 4  # both basic sides, the verify report, tail_prob_exact

    used = {node.attr for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "bm"}
    assert used <= QUICK_TOUR_NAMES

    jet, r, est = namespace["jet"], namespace["r"], namespace["est"]
    assert (jet.value, jet.derivative(1)) == (Fraction(1, 3), Fraction(-5, 18))
    assert r.value == pytest.approx(0.1, abs=1e-10)
    assert r.estimated_error <= 1e-10 and r.evaluations > 0
    assert est.exact_reference == Fraction(3, 4)
    assert abs(est.estimate - 0.75) <= 4 * est.std_error


# Every submodule's public functions (defined there, no leading underscore).
# Each computation has one public path, so a wrapper that only tests call
# shows up here before it can settle in.
PUBLIC_FUNCTIONS = {
    "cli": {"main"},
    "errors": set(),
    "exact": {"parse_rational", "format_rational", "check_natural", "check_positive"},
    "identities": {"eval_basic_lhs", "eval_basic_rhs", "eval_f_jet", "eval_g_jet",
                   "tail_prob_exact", "binomial_invert", "verify", "sweep"},
    "jets": {"jet_constant", "jet_variable"},
    "montecarlo": {"sample_max_exp", "sample_sum_exp", "sample_gamma_integer",
                   "estimate_tail_prob", "empirical_laplace", "ks_two_sample"},
    "quadrature": {"adaptive_simpson", "laplace_via_cdf_quadrature",
                   "laplace_via_density_quadrature"},
}


def test_public_functions_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(binomax.__path__):
        module = importlib.import_module(f"binomax.{info.name}")
        found[info.name] = {name for name, obj in vars(module).items()
                            if inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and not name.startswith("_")}
    assert found == PUBLIC_FUNCTIONS


# One class per failure: a second class for a failure one of these names
# shows up here before callers have to catch both.
ERROR_CLASSES = {
    "MixedJets", "DivisionByZeroJet", "OrderExceeded", "NonPositiveS", "NRequired",
    "InternalRouteMismatch", "EmptySequence", "UnknownIdentity", "ToleranceNotMet",
    "InsufficientSamples",
}


def test_error_classes_are_pinned():
    found = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert found == ERROR_CLASSES


# Every public entry point that takes s or a rate, with valid other arguments.
S_ENTRY_POINTS = {
    "IdentityParams": lambda s: binomax.IdentityParams(s, 3),
    "eval_basic_lhs": lambda s: binomax.eval_basic_lhs(s, 3),
    "eval_basic_rhs": lambda s: binomax.eval_basic_rhs(s, 3),
    "eval_f_jet": lambda s: binomax.eval_f_jet(s, 3, 2),
    "tail_prob_exact": lambda s: binomax.tail_prob_exact(2, s, 3),
    "cdf_quadrature": lambda s: laplace_via_cdf_quadrature(s, 3, 1e-10),
    "density_quadrature": lambda s: binomax.laplace_via_density_quadrature(s, 3, 1e-10),
    "sample_gamma_integer": lambda s: sample_gamma_integer(2, s, RngConfig(1).generator(), 10),
    "estimate_tail_prob": lambda s: binomax.estimate_tail_prob(2, s, 3, 10_000, RngConfig(1)),
    "empirical_laplace": lambda s: empirical_laplace(s, 3, 10_000, RngConfig(1)),
}


@pytest.mark.parametrize("s", [0, -1, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("entry", S_ENTRY_POINTS.values(), ids=S_ENTRY_POINTS.keys())
def test_every_s_entry_point_rejects_non_positive_or_non_finite_s(entry, s):
    with pytest.raises(NonPositiveS, match="must be finite and > 0"):
        entry(s)


def test_rejected_gamma_draw_leaves_the_generator_untouched():
    rng = RngConfig(5).generator()
    before = repr(rng.bit_generator.state)  # the Philox state holds small arrays
    with pytest.raises(NonPositiveS):
        sample_gamma_integer(2, math.nan, rng, 1000)
    assert repr(rng.bit_generator.state) == before
