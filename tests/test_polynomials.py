"""Exact polynomial arithmetic: ring laws, orders, pseudo-division."""

import random
from fractions import Fraction

import pytest

from gatpbench.groebner import (buchberger, divide, interreduce, normal_form,
                                s_polynomial)
from gatpbench.polynomials import (MissingVariableError, Monomial,
                                   NotUnivariateError, Polynomial, TermOrder,
                                   as_polynomial, power_table, pseudo_divide,
                                   scaled_point, var)

x, y, z, u, v = (var(n) for n in "xyzuv")


def random_poly(rng, names=("x", "y", "z"), terms=4, deg=3, bound=9):
    p = Polynomial.constant(0)
    for _ in range(rng.randint(1, terms)):
        t = Polynomial.constant(Fraction(rng.randint(-bound, bound)))
        for n in names:
            t = t * var(n) ** rng.randint(0, deg)
        p = p + t
    return p


def random_env(rng, names=("x", "y", "z"), bound=7):
    return {n: Fraction(rng.randint(-bound, bound),
                        rng.randint(1, bound)) for n in names}


class TestRingLaws:
    def test_ring_axioms_on_random_samples(self):
        rng = random.Random(20260818)
        for _ in range(200):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Polynomial.constant(0)
            assert a * Polynomial.constant(1) == a

    def test_evaluate_is_a_homomorphism(self):
        rng = random.Random(7)
        for _ in range(150):
            a, b = random_poly(rng), random_poly(rng)
            env = random_env(rng)
            assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)
            assert (a * b).evaluate(env) == a.evaluate(env) * b.evaluate(env)

    def test_power(self):
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert (x + 1) ** 0 == Polynomial.constant(1)

    def test_int_and_fraction_coercion(self):
        assert 2 * x == x + x
        assert x + Fraction(1, 2) == x + as_polynomial(Fraction(1, 2))


def per_term_value(p, env):
    """The reference evaluator: a plain per-term Fraction sum."""
    total = Fraction(0)
    for m, c in p.terms.items():
        term = Fraction(c)
        for name, e in m.exps:
            term *= Fraction(env[name]) ** e
        total += term
    return total


def random_coefficient(rng, bound=50):
    if rng.random() < 0.5:
        return rng.randint(-bound, bound)
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_dense_poly(rng, names=("x", "y", "z"), max_deg=6):
    """Int and Fraction coefficients, total degree up to max_deg."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        exps, left = {}, rng.randint(0, max_deg)
        for n in rng.sample(names, len(names)):
            exps[n] = rng.randint(0, left)
            left -= exps[n]
        terms[Monomial(exps)] = random_coefficient(rng)
    return Polynomial(terms)


def mixed_env(rng, names=("x", "y", "z"), bound=40):
    """Ints and Fractions, negative numerators included."""
    return {n: (rng.randint(-bound, bound) if rng.random() < 0.4
                else Fraction(rng.randint(-bound, bound),
                              rng.randint(1, bound))) for n in names}


class TestEvaluation:
    def test_matches_per_term_fraction_sum(self):
        rng = random.Random(8)
        fixed = [Polynomial(), Polynomial.constant(7),
                 Polynomial.constant(Fraction(-3, 4)), (x - y) ** 6]
        for i in range(400):
            p = fixed[i] if i < len(fixed) else random_dense_poly(rng)
            env = mixed_env(rng)
            got = p.evaluate(env)
            assert type(got) is Fraction
            assert got == per_term_value(p, env)

    def test_scaled_value_is_an_int_for_int_coefficients(self):
        rng = random.Random(9)
        for _ in range(200):
            dense = random_dense_poly(rng).terms
            p = Polynomial({m: c for m, c in dense.items() if type(c) is int})
            env = mixed_env(rng)
            d, numerators = scaled_point(env, env)
            assert all(env[n] * d == numerators[n] for n in env)
            value = p.scaled_value(power_table(d, p.total_degree),
                                   numerators)
            assert type(value) is int
            assert Fraction(value, d ** max(p.total_degree, 0)) \
                == per_term_value(p, env)

    def test_scaled_value_reads_a_longer_power_table(self):
        # a table up to d**K with K >= deg p gives d**K * p(x), so one table
        # serves every polynomial of a system at the same point
        rng = random.Random(10)
        for _ in range(200):
            dense = random_dense_poly(rng)
            ints = Polynomial({m: c for m, c in dense.terms.items()
                               if type(c) is int})
            env = mixed_env(rng)
            d, numerators = scaled_point(env, env)
            for extra in (0, 1, 3):
                top = max(dense.total_degree, 0) + extra
                dpow = power_table(d, top)
                assert dpow == [d ** i for i in range(top + 1)]
                for p in (dense, ints):
                    value = p.scaled_value(dpow, numerators)
                    assert value == d ** top * per_term_value(p, env)
                assert type(ints.scaled_value(dpow, numerators)) is int
        assert power_table(7, -1) == [1]
        with pytest.raises(MissingVariableError):
            (x * y + 1).scaled_value(power_table(2, 5), {"x": 3})

    def test_float_in_env_raises_type_error(self):
        with pytest.raises(TypeError):
            (x + y).evaluate({"x": 1, "y": 0.5})
        # only the variables the polynomial uses are read
        assert x.evaluate({"x": 2, "y": 0.5}) == 2

    def test_unbound_variable_raises_missing_variable_error(self):
        with pytest.raises(MissingVariableError):
            (x * y + 1).evaluate({"x": Fraction(1, 2)})
        with pytest.raises(MissingVariableError):
            (x + 1).scaled_value([1, 1], {"y": 3})


class TestStructure:
    def test_degrees(self):
        p = x ** 2 * y + y ** 3
        assert p.total_degree == 3
        assert p.degree_in("x") == 2
        assert p.degree_in("w") == 0
        assert Polynomial.constant(0).total_degree == -1

    def test_leading_data_in_variable(self):
        p = (u * v) * x ** 2 + v * x + 1
        assert p.degree_in("x") == 2
        assert p.leading_coeff_in("x") == u * v

    def test_monomial_ops(self):
        m = Monomial({"x": 2, "y": 1})
        n = Monomial({"x": 1, "z": 2})
        assert m.lcm(n) == Monomial({"x": 2, "y": 1, "z": 2})
        assert not m.coprime(n)
        assert Monomial({"y": 1}).coprime(n)

    def test_monomial_merges_match_exponent_arithmetic(self):
        rng = random.Random(2718)
        names = "abcdxyz"

        def draw():
            return {n: rng.randint(0, 3) for n in rng.sample(names, 4)}

        for _ in range(500):
            da, db = draw(), draw()
            a, b = Monomial(da), Monomial(db)
            both = set(da) | set(db)
            prod = Monomial({n: da.get(n, 0) + db.get(n, 0) for n in both})
            assert a * b == prod and (a * b).exps == prod.exps
            assert (a * b).degree == a.degree + b.degree
            lcm = Monomial({n: max(da.get(n, 0), db.get(n, 0)) for n in both})
            assert a.lcm(b).exps == lcm.exps
            assert a.lcm(b).degree == lcm.degree
            divides = all(db.get(n, 0) >= e for n, e in da.items())
            assert a.divides(b) == divides
            if divides:
                q = b.divide(a)
                assert q * a == b and q.degree == b.degree - a.degree
            else:
                with pytest.raises(ValueError):
                    b.divide(a)
            assert a.drop("x").exps == Monomial(
                {n: e for n, e in da.items() if n != "x"}).exps

    def test_to_string_is_stable(self):
        p = 3 * x ** 2 * y - z + Fraction(1, 2)
        assert p.to_string() == (x ** 2 * y * 3 + z * -1
                                 + Fraction(1, 2)).to_string()


class TestOrders:
    def test_degrevlex_vs_lex_disagree_where_expected(self):
        # classic separating pair: x*z^2 vs y^3 under x > y > z
        lex = TermOrder(TermOrder.LEX, ("x", "y", "z"))
        drl = TermOrder(TermOrder.DEGREVLEX, ("x", "y", "z"))
        a = Monomial({"x": 1, "z": 2})
        b = Monomial({"y": 3})
        assert lex.key(a) > lex.key(b)
        assert drl.key(a) < drl.key(b)

    def test_leading_monomial_changes_with_order(self):
        p = x * z ** 2 + y ** 3
        lex = TermOrder(TermOrder.LEX, ("x", "y", "z"))
        drl = TermOrder(TermOrder.DEGREVLEX, ("x", "y", "z"))
        assert p.leading_monomial(lex) == Monomial({"x": 1, "z": 2})
        assert p.leading_monomial(drl) == Monomial({"y": 3})


class TestPseudoDivision:
    def test_worked_case(self):
        f = x ** 2 - u
        g = v * x - 1
        q, r, k = pseudo_divide(f, g, "x")
        assert r == 1 - u * v ** 2
        assert k == 2
        assert g.leading_coeff_in("x") ** k * f == q * g + r

    def test_low_degree_dividend_passes_through(self):
        f = v * y + 1
        q, r, k = pseudo_divide(f, x ** 2 - u, "x")
        assert (q, r, k) == (Polynomial.constant(0), f, 0)

    def test_exact_factorization_leaves_zero(self):
        assert pseudo_divide(x ** 2 - 1, x - 1, "x")[1].is_zero()

    def test_degree_zero_divisor_rejected(self):
        with pytest.raises(NotUnivariateError):
            pseudo_divide(x ** 2, y + 1, "x")

    def test_identity_on_random_instances(self):
        rng = random.Random(99)
        checked = 0
        while checked < 300:
            f = random_poly(rng, terms=5)
            g = random_poly(rng, terms=3)
            if g.degree_in("x") < 1:
                continue
            q, r, k = pseudo_divide(f, g, "x")
            init = g.leading_coeff_in("x")
            assert init ** k * f == q * g + r
            assert r.degree_in("x") < g.degree_in("x")
            assert k <= max(f.degree_in("x") - g.degree_in("x") + 1, 0)
            checked += 1


def _assert_exact(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction), (type(c), p)


class TestExactCoefficients:
    """Coefficients are ints or Fractions, never floats or bools, whatever
    mix of types went in; division by an integer coefficient included."""

    def test_every_operation_keeps_coefficients_exact(self):
        rng = random.Random(1729)
        drl = TermOrder(TermOrder.DEGREVLEX, ("x", "y", "z"))
        lex = TermOrder(TermOrder.LEX, ("x", "y", "z"))
        checked = 0
        while checked < 60:
            # scale by 2..5 so leading coefficients are non-monic integers
            f = random_poly(rng) * rng.randint(2, 5)
            g = random_poly(rng, terms=3) * rng.randint(2, 5)
            h = random_poly(rng, terms=2) * Fraction(rng.randint(1, 4), 3)
            if g.is_zero() or h.is_zero():
                continue
            for order in (drl, lex):
                _assert_exact(f * g)
                _assert_exact(f * True)
                _assert_exact(g ** 3)
                _assert_exact(g.monic(order))
                _assert_exact(h.monic(order))
                _assert_exact(s_polynomial(g, h, order))
                qs, r = divide(f, [g, h], order)
                for p in qs + [r]:
                    _assert_exact(p)
                _assert_exact(normal_form(f, [g, h], order))
                for p in interreduce([f, g, h], order):
                    _assert_exact(p)
                for p in buchberger([g, h], order):
                    _assert_exact(p)
            if g.degree_in("x") >= 1:
                q, r, _ = pseudo_divide(f, g, "x")
                _assert_exact(q)
                _assert_exact(r)
            checked += 1

    def test_integer_division_goes_through_fraction(self):
        order = TermOrder(TermOrder.LEX, ("x",))
        p = 3 * x + 2
        assert p.monic(order).terms[Monomial()] == Fraction(2, 3)
        _assert_exact(p.monic(order))

    def test_integral_fraction_is_the_integer(self):
        a, b = Polynomial.constant(Fraction(3)), Polynomial.constant(3)
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_string() == b.to_string() == "3"
        _assert_exact(Polynomial.constant(True))
        assert Polynomial.constant(True) == Polynomial.constant(1)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Polynomial.constant(1.5)
        with pytest.raises(TypeError):
            x * 0.5
