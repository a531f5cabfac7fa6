"""The benchmark's layer tracing finds every call site it wraps.

perfbench/tracing.py replaces functions in the module where their callers
look them up (e.g. ``gatpbench.provers.pseudo_divide``), so a refactor that
renames or inlines one of them silently zeroes a per-layer metric.  Its
observers also read ``len(poly.terms)``.
"""

import importlib
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import SITES  # noqa: E402

from gatpbench.polynomials import Monomial, pseudo_divide, var  # noqa: E402


@pytest.mark.parametrize("module,path",
                         [pytest.param(m, p, id=f"{m}.{p}")
                          for m, p, *_ in SITES])
def test_site_resolves(module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{module}.{path} not found"
        obj = getattr(obj, attr)
    assert callable(obj)


def test_kernel_sites_are_looked_up_through_module_globals():
    wanted = {("gatpbench.provers", "pseudo_divide"),
              ("gatpbench.provers", "buchberger"),
              ("gatpbench.provers", "wu_triangulate"),
              ("gatpbench.groebner", "normal_form"),
              ("gatpbench.groebner", "s_polynomial"),
              ("gatpbench.groebner", "interreduce")}
    assert wanted <= {(m, p) for m, p, *_ in SITES}


def test_terms_map_monomials_to_coefficients():
    x, u = var("x"), var("u")
    _, r, _ = pseudo_divide(x ** 2 + u, u * x - 1, "x")
    assert isinstance(r.terms, Mapping)
    assert len(r.terms) == 2
    for m, c in r.terms.items():
        assert isinstance(m, Monomial)
        assert type(c) in (int, Fraction)


def test_every_builtin_prover_is_a_traced_harness_global():
    # run_single calls a built-in through the harness global of its name, so
    # a built-in that is not one, or that no site wraps, goes untraced
    from gatpbench import harness
    from gatpbench.provers import BUILTINS
    sites = {(m, p) for m, p, *_ in SITES}
    for ident, prove in BUILTINS.items():
        assert getattr(harness, prove.__name__, None) is prove, ident
        assert ("gatpbench.harness", prove.__name__) in sites, ident
