"""Problem DSL: parsing, rendering, validation."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from gatpbench.algebraize import PolynomialSystem, Variable
from gatpbench.corpus import CorpusEntry, CorpusManifest
from gatpbench.harness import RunConfig
from gatpbench.polynomials import var
from gatpbench.problems import (PREDICATES, STEPS, BadArityError, Collinear,
                                DuplicatePointError, Fixed, Free, Midpoint,
                                MidpointOf, ParseError, Problem,
                                ProblemSyntaxError, Record,
                                UndefinedPointError, ValidationWarning,
                                parse_problem, render_problem,
                                validate_problem)
from gatpbench.provers import (ChainMember, Consistent, Counterexample,
                               ProofOutcome, ProverDescriptor, ProverKind,
                               Status)
from gatpbench.ranking import (EfficiencyClass, ProblemSummary, Provenance,
                               QualityProfile, RankingReport)

MIDLINE = """\
problem demo
# meta: midline of a triangle
free A
free B
midpoint M A B
fixed O 0 1/2
conjecture collinear A M B
conjecture eqdist O A O B
"""


def test_parse_basic_shape():
    p = parse_problem(MIDLINE)
    assert p.id == "demo"
    assert p.meta == "midline of a triangle"
    assert [type(s) for s in p.steps] == [Free, Free, Midpoint, Fixed]
    assert p.steps[3].x == Fraction(0) and p.steps[3].y == Fraction(1, 2)
    assert len(p.conjectures) == 2


def test_render_parse_round_trip():
    p = parse_problem(MIDLINE)
    text = render_problem(p)
    assert parse_problem(text) == p
    assert render_problem(parse_problem(text)) == text


def test_comments_and_blank_lines_ignored():
    noisy = MIDLINE.replace("free B", "free B   # second vertex\n\n")
    assert parse_problem(noisy).id == "demo"


def test_rational_literals_normalised():
    p = parse_problem("problem r\nfixed A 2/4 -6/3\nfree B\n"
                      "conjecture collinear A A B\n")
    assert p.steps[0].x == Fraction(1, 2)
    assert p.steps[0].y == Fraction(-2)


class TestErrors:
    def check(self, text, exc, line):
        with pytest.raises(exc) as info:
            parse_problem(text)
        assert info.value.line == line
        assert info.value.col >= 1

    def test_missing_header(self):
        self.check("free A\n", ProblemSyntaxError, 1)

    def test_unknown_keyword(self):
        self.check("problem p\nfrree A\nconjecture collinear A A A\n",
                   ProblemSyntaxError, 2)

    def test_undefined_point(self):
        self.check("problem p\nfree A\nmidpoint M A B\n"
                   "conjecture collinear A M B\n", UndefinedPointError, 3)

    def test_duplicate_point(self):
        self.check("problem p\nfree A\nfree A\n"
                   "conjecture collinear A A A\n", DuplicatePointError, 3)

    def test_bad_predicate_arity(self):
        self.check("problem p\nfree A\nfree B\nconjecture collinear A B\n",
                   BadArityError, 4)

    def test_zero_denominator(self):
        self.check("problem p\nfixed A 1/0 0\nconjecture collinear A A A\n",
                   ParseError, 2)

    def test_conjecture_required(self):
        with pytest.raises(ParseError):
            parse_problem("problem p\nfree A\n")

    def test_construction_after_conjecture_rejected(self):
        self.check("problem p\nfree A\nfree B\n"
                   "conjecture collinear A B B\nfree C\n",
                   ProblemSyntaxError, 5)

    def test_inter_same_line_pair_rejected(self):
        self.check("problem p\nfree A\nfree B\ninter P A B B A\n"
                   "conjecture collinear A B P\n", ParseError, 4)

    def test_fresh_point_must_be_fresh(self):
        self.check("problem p\nfree A\nfree B\nmidpoint A A B\n"
                   "conjecture collinear A B B\n", DuplicatePointError, 4)


# past CPython's int-string limit (4,300 digits by default) int() refuses a
# numeral; the parser reports it at the literal instead of letting it escape
HUGE = "1" * 5000
HUGE_LITERALS = [
    pytest.param(f"fixed A  {HUGE} 0", 10, 5000, id="numerator"),
    pytest.param(f"fixed A 0\t-1/{HUGE}", 11, 5003, id="denominator")]


@pytest.mark.parametrize("step,col,length", HUGE_LITERALS)
def test_an_overlong_rational_literal_is_a_syntax_error(step, col, length):
    with pytest.raises(ProblemSyntaxError) as info:
        parse_problem(f"problem p\n{step}\nconjecture collinear A A A\n")
    assert (info.value.line, info.value.col) == (2, col)
    assert info.value.reason == (
        f"rational literal of {length} characters has too many digits")


class TestValidation:
    def test_clean_problem_has_no_warnings(self):
        assert validate_problem(parse_problem(MIDLINE)) == []

    def test_degenerate_step_flagged(self):
        p = parse_problem("problem p\nfree A\non_line P A A\n"
                          "conjecture collinear A P P\n")
        kinds = {w.kind for w in validate_problem(p)}
        assert "degenerate-step" in kinds

    def test_degenerate_predicate_flagged(self):
        p = parse_problem("problem p\nfree A\nfree B\n"
                          "conjecture collinear A A B\n")
        kinds = {w.kind for w in validate_problem(p)}
        assert "degenerate-predicate" in kinds

    def test_unused_point_flagged(self):
        p = parse_problem("problem p\nfree A\nfree B\nfree C\n"
                          "conjecture eqdist A B A B\n")
        warnings = validate_problem(p)
        assert any(w.kind == "unused-point" and w.subject == "C"
                   for w in warnings)

    def test_warnings_are_deterministic(self):
        text = ("problem p\nfree A\nfree B\nfree Z\n"
                "conjecture parallel A B A B\n")
        p = parse_problem(text)
        assert validate_problem(p) == validate_problem(parse_problem(text))


class TestConstructValues:
    """A construct is an immutable value of its class and arguments."""

    def test_equality_needs_the_same_class(self):
        assert Collinear("A", "B", "C") == Collinear("A", "B", "C")
        assert Collinear("A", "B", "C") != Collinear("A", "C", "B")
        assert Collinear("A", "B", "C") != MidpointOf("A", "B", "C")
        assert Collinear("A", "B", "C") != ("A", "B", "C")

    def test_equal_constructs_hash_equal(self):
        one = Fixed("P", Fraction(1, 2), Fraction(-3))
        other = parse_problem("problem h\nfixed P 2/4 -3\n"
                              "conjecture collinear P P P\n").steps[0]
        assert one is not other and one == other
        assert hash(one) == hash(other)
        assert len({one, other, Free("P")}) == 2

    @pytest.mark.parametrize("change", [
        lambda c: setattr(c, "a", "Z"),
        lambda c: setattr(c, "extra", 1),
        lambda c: delattr(c, "a"),
    ], ids=["assign", "add", "delete"])
    def test_fields_cannot_change(self, change):
        c = Collinear("A", "B", "C")
        with pytest.raises(AttributeError):
            change(c)
        assert c.args() == ("A", "B", "C")

    @pytest.mark.parametrize("args", [(), ("A", "B"), ("A", "B", "C", "D")])
    def test_wrong_arity_raises_type_error(self, args):
        with pytest.raises(TypeError):
            Collinear(*args)

    def test_repr_keeps_the_dataclass_form(self):
        assert repr(Midpoint("M", "A", "B")) == (
            "Midpoint(point='M', a='A', b='B')")
        assert repr(Fixed("P", Fraction(1, 2), Fraction(-3))) == (
            "Fixed(point='P', x=Fraction(1, 2), y=Fraction(-3, 1))")

    def test_no_construct_is_a_dataclass(self):
        # importing problems runs no dataclass code generation per construct
        for cls in [*STEPS.values(), *PREDICATES.values()]:
            assert not dataclasses.is_dataclass(cls), cls.__name__


# one sample of each record class but the constructs, built from its
# required fields only, and its repr as a frozen dataclass printed it
PROBLEM = Problem("p", (Free("A"),), (Collinear("A", "A", "A"),))
PROBLEM_REPR = ("Problem(id='p', steps=(Free(point='A'),), "
                "conjectures=(Collinear(a='A', b='A', c='A'),), meta=None)")
ENTRY = CorpusEntry("p", "p.geo", "proved", PROBLEM)
ENTRY_REPR = ("CorpusEntry(id='p', path='p.geo', expected_status='proved', "
              f"problem={PROBLEM_REPR})")
MANIFEST = CorpusManifest("m.tsv", (ENTRY,))
MANIFEST_REPR = f"CorpusManifest(path='m.tsv', entries=({ENTRY_REPR},))"
WU = ProverDescriptor("wu", ProverKind.BUILTIN)
WU_REPR = ("ProverDescriptor(id='wu', kind=<ProverKind.BUILTIN: 'builtin'>, "
           "readability_level=1, reliability=<ReliabilityClass.UNVERIFIED: "
           "'unverified'>, command_template=None)")
UNVERIFIED = WU.reliability

RECORDS = [
    (ValidationWarning, ("unused-point", "A", "never referenced"),
     "ValidationWarning(kind='unused-point', subject='A', "
     "detail='never referenced')"),
    (Problem, ("p", (Free("A"),), (Collinear("A", "A", "A"),)), PROBLEM_REPR),
    (Variable, ("u1", "param", 1, "A", "x"),
     "Variable(name='u1', kind='param', index=1, point='A', axis='x')"),
    (PolynomialSystem, ((), (), (), (), (), {"A": (0, 0)}, PROBLEM),
     "PolynomialSystem(hypotheses=(), conclusions=(), params=(), "
     "dependents=(), ndg_hints=(), assignment={'A': (0, 0)}, "
     f"problem={PROBLEM_REPR})"),
    (ProofOutcome, (Status.PROVED,),
     "ProofOutcome(status=<Status.PROVED: 'proved'>, ndg_conditions=(), "
     "trace=None, cpu_seconds=0.0, wall_seconds=0.0, message='')"),
    (ProverDescriptor, ("wu", ProverKind.BUILTIN), WU_REPR),
    (ChainMember, (var("x1") ** 2 - var("u1"), "x1", var("u1") ** 0, 2),
     "ChainMember(poly=Polynomial(1*x1^2 + -1*u1), main_var='x1', "
     "initial=Polynomial(1), degree=2)"),
    (Consistent, (3,), "Consistent(samples=3)"),
    (Counterexample, ({"A": (Fraction(0), Fraction(1, 2))},
                      {"u1": Fraction(1, 2)}, 0, Fraction(3)),
     "Counterexample(model={'A': (Fraction(0, 1), Fraction(1, 2))}, "
     "env={'u1': Fraction(1, 2)}, conclusion_index=0, "
     "value=Fraction(3, 1))"),
    (CorpusEntry, ("p", "p.geo", "proved", PROBLEM), ENTRY_REPR),
    (CorpusManifest, ("m.tsv", (ENTRY,)), MANIFEST_REPR),
    (RunConfig, ((WU,), MANIFEST),
     f"RunConfig(provers=({WU_REPR},), corpus={MANIFEST_REPR}, "
     "timeout_seconds=60.0, repetitions=1, parallelism=1)"),
    (ProblemSummary, ("p", Status.PROVED, 0.5, EfficiencyClass.GOOD),
     "ProblemSummary(problem_id='p', status=<Status.PROVED: 'proved'>, "
     "median_seconds=0.5, efficiency=<EfficiencyClass.GOOD: 'good'>)"),
    (QualityProfile, ("wu", Fraction(1), 1, 1, {"good": 1}, 0.5, 1,
                      UNVERIFIED, Fraction(1), None, ()),
     "QualityProfile(prover_id='wu', scope_score=Fraction(1, 1), "
     "proved_count=1, considered_count=1, efficiency_counts={'good': 1}, "
     "median_proved_seconds=0.5, readability_level=1, "
     "reliability=<ReliabilityClass.UNVERIFIED: 'unverified'>, "
     "oracle_agreement=Fraction(1, 1), de_bruijn=None, problems=())"),
    (Provenance, (1, "wall", ("h",), None),
     "Provenance(record_count=1, time_source='wall', hosts=('h',), "
     "corpus_digest=None)"),
    (RankingReport, ((), {"scope": ("wu",)}, None, None, None),
     "RankingReport(profiles=(), dimension_order={'scope': ('wu',)}, "
     "weights=None, aggregate=None, provenance=None)"),
]


@pytest.mark.parametrize("cls, args, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_value(cls, args, text):
    """Every record but the store row is a Record that behaves as the
    frozen dataclass it replaced."""
    assert not dataclasses.is_dataclass(cls)
    record = cls(*args)
    assert repr(record) == text
    fields = vars(record)
    assert cls(**fields) == record == cls(*fields.values())
    first = next(iter(fields))
    assert cls(args[0], **dict(list(fields.items())[1:])) == record
    for bad in [lambda: cls(*args[:-1]), lambda: cls(*args, bogus=1),
                lambda: cls(*fields.values(), None),
                lambda: cls(*args, **{first: args[0]})]:
        with pytest.raises(TypeError):
            bad()
    twin = type(cls.__name__, (Record,),
                {"__annotations__": dict.fromkeys(fields, "object")})
    assert record != twin(*fields.values())
    assert twin(*fields.values()) != record
    for back in [pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)]:
        assert type(back) is cls and back == record and repr(back) == text
    if any(isinstance(v, dict) for v in fields.values()):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy.deepcopy(record)) == hash(record)
    for change in [lambda: setattr(record, first, args[0]),
                   lambda: delattr(record, first)]:
        with pytest.raises(AttributeError):
            change()
    assert repr(record) == text


@pytest.mark.parametrize("make", [
    lambda: Problem("p", (Free("A"),), ()),
    lambda: ProverDescriptor("wu", ProverKind.BUILTIN, readability_level=6),
    lambda: RunConfig((WU, WU), MANIFEST),
], ids=["problem-without-conjectures", "readability-6", "duplicate-prover"])
def test_record_validators_still_raise(make):
    with pytest.raises(ValueError):
        make()
