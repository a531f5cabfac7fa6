"""Benchmarking and ranking toolkit for geometric automated theorem provers.

The pipeline: parse a constructive problem (`problems`), turn it into a
polynomial system (`algebraize`), decide it with the built-in Wu or
Gröbner prover or an external command (`provers`), cross-check with the
exact numeric oracle, time everything over a corpus (`harness`), and rank
the provers on scope, efficiency, readability and reliability (`ranking`).
"""

from .algebraize import (AlgebraizeError, DegenerateConstructionError,
                         PolynomialSystem, Variable, algebraize,
                         translate_predicate)
from .budget import Deadline, DeadlineExceeded
from .corpus import (CorpusEntry, CorpusError, CorpusManifest,
                     CorpusParseError, DuplicateIdError, MissingFileError,
                     bundled_manifest_path, corpus_hash, load_corpus)
from .harness import (DEFAULT_TIMEOUT_SECONDS, CorruptRecordError,
                      ResultsStore, RunConfig, RunRecord, format_record,
                      host_fingerprint, parse_record, run_single, run_suite)
from .polynomials import (Monomial, NotUnivariateError, Polynomial, Rational,
                          TermOrder, as_polynomial, pseudo_divide, var)
from .groebner import buchberger, divide, is_unit_basis, normal_form, s_polynomial
from .problems import (BadArityError, DuplicatePointError, ParseError, Problem,
                       ProblemSyntaxError, UndefinedPointError,
                       ValidationWarning, parse_problem, render_problem,
                       validate_problem)
from .provers import (Consistent, Counterexample, DegenerateExhaustedError,
                      InconsistentSystemError, ProofOutcome, ProverDescriptor,
                      ProverKind, ReliabilityClass, SpawnFailureError, Status,
                      TriangulateError, external_descriptor, external_prove,
                      groebner_descriptor, groebner_prove, numeric_check,
                      solve_construction, wu_descriptor, wu_prove,
                      wu_triangulate)
from .ranking import (EfficiencyClass, MissingRecordsError,
                      NegativeWeightError, QualityProfile, RankingError,
                      RankingReport, ZeroSizeError, build_quality_profile,
                      classify_time, de_bruijn_factor, de_bruijn_factor_text,
                      rank_report, report_from_records)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
