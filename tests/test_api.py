"""The package namespace is the README's quick tour, and the tour runs."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import binomax

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
