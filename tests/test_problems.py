"""Problem DSL: parsing, rendering, validation."""

import dataclasses
from fractions import Fraction

import pytest

from gatpbench.problems import (PREDICATES, STEPS, BadArityError, Collinear,
                                DuplicatePointError, Fixed, Free, Midpoint,
                                MidpointOf, ParseError, ProblemSyntaxError,
                                UndefinedPointError, parse_problem,
                                render_problem, validate_problem)

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
