"""Benchmarking and ranking toolkit for geometric automated theorem provers.

The pipeline: parse a constructive problem (`problems`), turn it into a
polynomial system (`algebraize`), decide it with the built-in Wu or
Gröbner prover or an external command (`provers`), cross-check with the
exact numeric oracle, time everything over a corpus (`harness`), and rank
the provers on scope, efficiency, readability and reliability (`ranking`).

Importing the package loads `problems` and `algebraize` only; each name
listed in _LAZY loads its module on first use (PEP 562).  The polynomial
kernel and `budget` load with the first algebraize call or the first use
of one of their names, so reading a corpus never loads them, and a process
that proves imports the same modules either way.
"""

from importlib import import_module as _import_module

# the function shadows its submodule: importing the submodule again later
# finds it in sys.modules and leaves this binding alone
from .algebraize import (AlgebraizeError, DegenerateConstructionError,
                         PolynomialSystem, Variable, algebraize,
                         translate_predicate)
from .problems import (BadArityError, DuplicatePointError, ParseError, Problem,
                       ProblemSyntaxError, UndefinedPointError,
                       ValidationWarning, parse_problem, render_problem,
                       validate_problem)

_LAZY = {
    "budget": ("DEFAULT_TIMEOUT_SECONDS", "Deadline", "DeadlineExceeded"),
    "corpus": ("CorpusEntry", "CorpusError", "CorpusManifest",
               "CorpusParseError", "DuplicateIdError", "MissingFileError",
               "bundled_manifest_path", "corpus_hash", "load_corpus"),
    "harness": ("CorruptRecordError", "ResultsStore", "RunConfig", "RunRecord",
                "format_record", "host_fingerprint", "parse_record",
                "run_single", "run_suite"),
    "groebner": ("buchberger", "divide", "is_unit_basis", "normal_form",
                 "s_polynomial"),
    "polynomials": ("Monomial", "NotUnivariateError", "Polynomial", "Rational",
                    "TermOrder", "as_polynomial", "pseudo_divide", "var"),
    "provers": ("Consistent", "Counterexample", "DegenerateExhaustedError",
                "InconsistentSystemError", "ProofOutcome", "ProverDescriptor",
                "ProverKind", "ReliabilityClass", "SpawnFailureError",
                "Status", "TriangulateError", "external_descriptor",
                "external_prove", "groebner_descriptor", "groebner_prove",
                "numeric_check", "solve_construction", "wu_descriptor",
                "wu_prove", "wu_triangulate"),
    "ranking": ("EfficiencyClass", "MissingRecordsError",
                "NegativeWeightError", "QualityProfile", "RankingError",
                "RankingReport", "ZeroSizeError", "build_quality_profile",
                "classify_time", "de_bruijn_factor", "de_bruijn_factor_text",
                "rank_report", "report_from_records"),
}


def __getattr__(name):
    # an AttributeError for a submodule name lets `from gatpbench import
    # harness` fall back to importing the submodule
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(_import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [name for names in _LAZY.values() for name in names]
                 + list(_LAZY))
