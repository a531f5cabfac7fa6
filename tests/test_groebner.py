"""Buchberger's algorithm and multivariate division."""

import random
from fractions import Fraction

import pytest

from gatpbench import groebner
from gatpbench.groebner import (buchberger, divide, interreduce,
                                is_unit_basis, normal_form, s_polynomial)
from gatpbench.polynomials import Polynomial, TermOrder, var

x, y, z = var("x"), var("y"), var("z")
LEX_XY = TermOrder(TermOrder.LEX, ("x", "y"))
DRL_XYZ = TermOrder(TermOrder.DEGREVLEX, ("x", "y", "z"))


def random_poly(rng, names=("x", "y", "z"), terms=3, deg=2, bound=5):
    p = Polynomial.constant(0)
    for _ in range(rng.randint(1, terms)):
        t = Polynomial.constant(Fraction(rng.randint(-bound, bound)))
        for n in names:
            t = t * var(n) ** rng.randint(0, deg)
        p = p + t
    return p


def test_worked_basis():
    basis = buchberger([x ** 2 + y ** 2, x * y], LEX_XY)
    assert basis == [x ** 2 + y ** 2, x * y, y ** 3]


def test_normal_form_fixpoint():
    basis = [x * y, y ** 3]
    r = normal_form(x ** 2 + y ** 2, basis, LEX_XY)
    assert r == x ** 2 + y ** 2
    assert normal_form(r, basis, LEX_XY) == r


def test_division_identity():
    rng = random.Random(4242)
    for _ in range(60):
        f = random_poly(rng)
        basis = [random_poly(rng) for _ in range(rng.randint(1, 3))]
        basis = [b for b in basis if not b.is_zero()]
        if not basis:
            continue
        qs, r = divide(f, basis, DRL_XYZ)
        assert sum((q * b for q, b in zip(qs, basis)),
                   Polynomial.constant(0)) + r == f
        # remainder is irreducible: no term divisible by any leading monomial
        lms = [b.leading_monomial(DRL_XYZ) for b in basis]
        for mono in r.terms:
            assert not any(lm.divides(mono) for lm in lms)


def test_s_polynomial_cancels_leading_terms():
    f, g = x ** 2 + y ** 2, x * y
    s = s_polynomial(f, g, LEX_XY)
    assert s == y ** 3


LEX_XYZ = TermOrder(TermOrder.LEX, ("x", "y", "z"))


def textbook_s_polynomial(f, g, order):
    """(l/LT f)*f - (l/LT g)*g, l the lcm of the leading monomials."""
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    l = lmf.lcm(lmg)
    return (f.term_times(Fraction(1, f.terms[lmf]), l.divide(lmf))
            - g.term_times(Fraction(1, g.terms[lmg]), l.divide(lmg)))


def random_coefficient(rng, rational):
    """A nonzero int in [-6, 6], or with rational a Fraction n/d."""
    c = rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
    return Fraction(c, rng.randint(1, 7)) if rational else c


def random_sparse(rng, rational=False, terms=3, deg=2):
    """A nonzero polynomial in x, y, z with non-monic leads."""
    while True:
        p = Polynomial([(tuple((n, rng.randint(0, deg)) for n in "xyz"),
                         random_coefficient(rng, rational))
                        for _ in range(rng.randint(1, terms))])
        if not p.is_zero():
            return p


def test_s_polynomial_is_a_fraction_free_multiple_of_the_textbook_one():
    """On int inputs s_polynomial has int coefficients; on any inputs it is
    a nonzero rational multiple of the textbook S-polynomial."""
    rng = random.Random(1988)
    for k in range(300):
        order = (LEX_XYZ, DRL_XYZ)[k % 2]
        rational = k % 3 == 0
        f = random_sparse(rng, rational)
        g = random_sparse(rng, rational)
        s = s_polynomial(f, g, order)
        textbook = textbook_s_polynomial(f, g, order)
        if not rational:
            assert all(type(c) is int for c in s.terms.values())
        assert s.is_zero() == textbook.is_zero()
        if not s.is_zero():
            ratio = Fraction(s.leading_coeff(order)) \
                / textbook.leading_coeff(order)
            assert s == textbook * ratio


def test_normal_form_ignores_the_scale_of_each_divisor():
    """Division by c_i*g_i leaves the remainder of division by g_i: the
    divisor records keep a primitive integer copy of each divisor."""
    rng = random.Random(2002)
    for k in range(200):
        order = (LEX_XYZ, DRL_XYZ)[k % 2]
        f = random_sparse(rng, k % 3 == 0, terms=5, deg=3)
        basis = [random_sparse(rng, k % 4 == 0)
                 for _ in range(rng.randint(1, 3))]
        scaled = [g * random_coefficient(rng, True) for g in basis]
        expected = normal_form(f, basis, order)
        assert normal_form(f, scaled, order) == expected
        assert divide(f, scaled, order)[1] == expected


def test_integer_division_by_unit_leads_builds_no_fraction(count_fractions):
    """Integer f, integer divisors with leads +-1: every step divides its
    lead exactly, so the reduction stays in ints throughout."""
    rng = random.Random(77)
    cases = []
    for k in range(100):
        order = (LEX_XYZ, DRL_XYZ)[k % 2]
        basis = []
        for _ in range(rng.randint(1, 3)):
            g = random_sparse(rng)
            terms = dict(g.terms)
            terms[g.leading_monomial(order)] = rng.choice([-1, 1])
            basis.append(Polynomial(terms))
        cases.append((random_sparse(rng, terms=5, deg=3), basis, order))
    before = len(count_fractions)
    for f, basis, order in cases:
        r = normal_form(f, basis, order)
        assert all(type(c) is int for c in r.terms.values())
    assert len(count_fractions) == before


class TestBuchbergerCorrectness:
    def test_random_systems(self):
        """Every S-pair reduces to zero; inputs lie in the output ideal."""
        rng = random.Random(31337)
        for _ in range(40):
            gens = [random_poly(rng, terms=2)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = buchberger(gens, DRL_XYZ)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], DRL_XYZ)
                    assert normal_form(s, basis, DRL_XYZ).is_zero()
            for g in gens:
                assert normal_form(g, basis, DRL_XYZ).is_zero()

    def test_output_is_monic_and_sorted(self):
        basis = buchberger([2 * x ** 2 + 2 * y ** 2, 5 * x * y], LEX_XY)
        for b in basis:
            assert b.leading_coeff(LEX_XY) == 1
        keys = [LEX_XY.key(b.leading_monomial(LEX_XY)) for b in basis]
        assert keys == sorted(keys, reverse=True)

    def test_basis_is_deterministic(self):
        gens = [x * y - z, y * z - x, z * x - y]
        a = buchberger(gens, DRL_XYZ)
        b = buchberger(list(reversed(gens)), DRL_XYZ)
        assert a == b  # reduced bases are unique per (ideal, order)

    def test_unit_ideal_detection(self):
        basis = buchberger([x, x + 1], LEX_XY)
        assert is_unit_basis(basis)
        assert not is_unit_basis(buchberger([x ** 2], LEX_XY))


def reference_basis(gens, order):
    """Buchberger with no criterion and no early stop: the textbook
    S-polynomial of every pair is reduced (smallest lcm degree first), each
    nonzero remainder kept monic, and the result interreduced."""
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]

    def lcm_degree(pair):
        i, j = pair
        return basis[i].leading_monomial(order).lcm(
            basis[j].leading_monomial(order)).degree
    while pairs:
        pairs.sort(key=lcm_degree)
        i, j = pairs.pop(0)
        h = normal_form(textbook_s_polynomial(basis[i], basis[j], order),
                        basis, order)
        if not h.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(h.monic(order))
    return interreduce(basis, order)


def test_criteria_never_change_the_ideal():
    """buchberger's pair criteria and early stop leave the reduced basis
    that reducing every pair gives, for int and Fraction generators."""
    rng = random.Random(1979)
    units = 0
    for k in range(200):
        order = (LEX_XYZ, DRL_XYZ)[k % 2]
        gens = [random_sparse(rng, rational=k % 3 == 0)
                for _ in range(rng.randint(2, 3))]
        expected = reference_basis(gens, order)
        assert buchberger(gens, order) == expected, gens
        units += is_unit_basis(expected)
    assert 0 < units < 200


def _unreduced(basis, order, rng):
    """The same Groebner basis, neither reduced nor monic nor sorted: each
    member gets multiples of the others whose leads lie below its own, so
    every lead and the ideal stay the same; one redundant multiple joins."""
    lead = [order.key(g.leading_monomial(order)) for g in basis]
    out = []
    for i, g in enumerate(basis):
        for _ in range(6):
            j = rng.randrange(len(basis))
            m = x ** rng.randint(0, 1) * y ** rng.randint(0, 2) \
                * z ** rng.randint(0, 2)
            h = m * basis[j]
            if j != i and order.key(h.leading_monomial(order)) < lead[i]:
                g = g + rng.choice([-3, -1, 2, Fraction(1, 2)]) * h
        out.append(g * rng.choice([-2, 3, Fraction(-5, 7)]))
    out.append(x * rng.choice(basis))
    rng.shuffle(out)
    return out


def test_interreduce_gives_the_reduced_basis():
    rng = random.Random(2718)
    lex = TermOrder(TermOrder.LEX, ("x", "y", "z"))
    checked = 0
    while checked < 200:
        order = rng.choice([lex, DRL_XYZ])
        gens = [random_poly(rng, terms=3) for _ in range(rng.randint(2, 3))]
        reduced = buchberger(gens, order)
        if len(reduced) < 2:
            continue
        assert interreduce(_unreduced(reduced, order, rng), order) == reduced
        checked += 1


def count_calls(monkeypatch, name):
    """The argument tuples of every call to the groebner global name."""
    calls = []
    real = getattr(groebner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(groebner, name, counted)
    return calls


class TestUnitIdealStopsEarly:
    """buchberger returns [1] at the first nonzero constant remainder."""

    def test_unit_from_an_s_pair(self, monkeypatch):
        calls = count_calls(monkeypatch, "s_polynomial")
        # the first pair taken, (xy - 1, x), gives S = -1; the pair
        # (xy - 1, y + z) of the same lcm degree is never formed
        basis = buchberger([x * y - 1, x, y + z], DRL_XYZ)
        assert basis == [Polynomial.constant(1)]
        assert len(calls) == 1

    def test_generator_that_reduces_to_a_constant(self, monkeypatch):
        calls = count_calls(monkeypatch, "normal_form")
        basis = buchberger([x, x + 1, y ** 2 + z], DRL_XYZ)
        assert basis == [Polynomial.constant(1)]
        assert len(calls) == 1      # y^2 + z is never reduced
        assert buchberger([Polynomial.constant(3), x], LEX_XY) \
            == [Polynomial.constant(1)]


ZERO, ONE = Polynomial.constant(0), Polynomial.constant(1)


@pytest.mark.parametrize("gens, expected, nf_calls", [
    ([], [], 0),
    ([ZERO], [], 0),
    # the zero generator is never reduced; the one call is interreduce's
    ([x, ZERO], [x], 1),
    # 2x reduces to zero by x; the second call is interreduce's
    ([x, 2 * x], [x], 2),
    # the first generator is kept unreduced, a constant one at once
    ([Polynomial.constant(3)], [ONE], 0),
    ([x, Polynomial.constant(5)], [ONE], 1),
], ids=["none", "zero", "zero-skipped", "multiple-dropped", "constant",
        "reduces-to-constant"])
def test_generator_path(monkeypatch, gens, expected, nf_calls):
    calls = count_calls(monkeypatch, "normal_form")
    assert buchberger(gens, LEX_XY) == expected
    assert len(calls) == nf_calls


def test_divisor_records_divide_like_a_plain_list(monkeypatch):
    """normal_form and divide read Buchberger's record-carrying basis
    exactly as they read the same polynomials in a plain list."""
    real = groebner.normal_form
    seen = []

    def checked(f, basis, order, deadline=None):
        assert type(basis) is groebner._Basis
        plain = list(basis)
        got = real(f, basis, order, deadline)
        assert got == real(f, plain, order)
        quotients, remainder = divide(f, basis, order)
        assert (quotients, remainder) == divide(f, plain, order)
        assert remainder == got
        seen.append(len(plain))
        return got
    monkeypatch.setattr(groebner, "normal_form", checked)
    rng = random.Random(31415)
    lex = TermOrder(TermOrder.LEX, ("x", "y", "z"))
    for _ in range(40):
        order = rng.choice([lex, DRL_XYZ])
        buchberger([random_poly(rng, terms=3)
                    for _ in range(rng.randint(2, 4))], order)
    assert len(seen) > 100 and max(seen) >= 4
