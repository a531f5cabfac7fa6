"""Exact polynomial arithmetic: ring laws, orders, pseudo-division."""

import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from gatpbench.groebner import (buchberger, divide, interreduce, normal_form,
                                s_polynomial)
from gatpbench.polynomials import (MissingVariableError, Monomial,
                                   NotUnivariateError, Polynomial, TermOrder,
                                   as_polynomial, power_table, pseudo_divide,
                                   scaled_point, var)

x, y, z, u, v = (var(n) for n in "xyzuv")
LIMIT = 2 ** 15 - 1     # largest exponent and total degree of a Monomial


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

    def test_short_power_table_raises(self):
        p = x ** 2 + 1
        d, numerators = scaled_point({"x": Fraction(1, 2)}, ["x"])
        assert p.scaled_value(power_table(d, 2), numerators) == 5
        with pytest.raises(ValueError):
            p.scaled_value(power_table(d, 1), numerators)
        with pytest.raises(ValueError):
            (x * y).scaled_value([1], {"x": 1, "y": 1})
        assert Polynomial().scaled_value([1], {}) == 0

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
        # every packed operation against a plain name -> exponent dict, on
        # monomials wider than 64 bits and exponents just below the limit
        rng = random.Random(2718)
        names = "abcdxyz"

        def draw():
            picked = rng.sample(names, 4)
            d = {n: rng.randint(0, 3) for n in picked}
            if rng.random() < 0.2:      # one exponent near the limit
                d[picked[0]] = 0
                d[picked[0]] = LIMIT - sum(d.values()) - rng.randint(0, 2)
            return {n: e for n, e in d.items() if e}

        def text(d):
            return "*".join(n if e == 1 else f"{n}^{e}"
                            for n, e in sorted(d.items())) or "1"

        wide = 0
        for _ in range(1500):
            da, db = draw(), draw()
            a, b = Monomial(da), Monomial(db)
            wide += a.bit_length() > 64
            both = set(da) | set(db)
            assert a.exps == tuple(sorted(da.items()))
            assert a.degree == sum(da.values())
            assert repr(a) == str(a) == text(da)
            assert a.variables() == tuple(sorted(da))
            for n in names:
                assert a.degree_in(n) == da.get(n, 0)
            prod = {n: da.get(n, 0) + db.get(n, 0) for n in both}
            if sum(prod.values()) > LIMIT:
                with pytest.raises(OverflowError):
                    a * b
            else:
                assert a * b == Monomial(prod)
                assert (a * b).exps == tuple(sorted(prod.items()))
                assert (a * b).degree == a.degree + b.degree
            lcm = {n: max(da.get(n, 0), db.get(n, 0)) for n in both}
            if sum(lcm.values()) > LIMIT:
                with pytest.raises(OverflowError):
                    a.lcm(b)
            else:
                assert a.lcm(b) == Monomial(lcm)
                assert a.lcm(b).exps == tuple(sorted(lcm.items()))
                assert a.lcm(b).degree == sum(lcm.values())
            assert a.coprime(b) == (not set(da) & set(db))
            divides = all(db.get(n, 0) >= e for n, e in da.items())
            assert a.divides(b) == divides
            if divides:
                q = b.divide(a)
                assert q.exps == tuple(sorted(
                    (n, e - da.get(n, 0)) for n, e in db.items()
                    if e != da.get(n, 0)))
                assert q * a == b and q.degree == b.degree - a.degree
            else:
                with pytest.raises(ValueError):
                    b.divide(a)
            for n in "xa":
                rest = {m: e for m, e in da.items() if m != n}
                assert a.drop(n) == Monomial(rest)
                assert a.drop(n).exps == tuple(sorted(rest.items()))
                assert a.drop(n).degree == sum(rest.values())
        assert wide > 100

    def test_to_string_is_stable(self):
        p = 3 * x ** 2 * y - z + Fraction(1, 2)
        assert p.to_string() == (x ** 2 * y * 3 + z * -1
                                 + Fraction(1, 2)).to_string()


class TestPackedMonomials:
    """A Monomial is one int of bit fields, placed by a registry of names
    that the whole process shares."""

    def test_exponent_overflow_raises(self):
        with pytest.raises(OverflowError):
            Monomial({"x": 2 ** 40})
        with pytest.raises(OverflowError):
            Monomial({"x": LIMIT + 1})
        with pytest.raises(OverflowError):
            Monomial({"x": LIMIT, "y": 1})      # total degree above the limit
        with pytest.raises(OverflowError):
            Monomial([("x", LIMIT), ("x", 1)])
        top = Monomial({"x": LIMIT})
        assert top.exps == (("x", LIMIT),) and top.degree == LIMIT
        for other in (Monomial({"x": 1}), Monomial({"y": 1})):
            with pytest.raises(OverflowError):
                top * other
        assert top.lcm(Monomial({"x": 1})) == top
        with pytest.raises(OverflowError):
            top.lcm(Monomial({"y": 1}))
        with pytest.raises(OverflowError):
            x ** LIMIT * x
        with pytest.raises(OverflowError):
            x ** LIMIT * (y + 1)
        with pytest.raises(OverflowError):
            (x ** LIMIT + 1).term_times(2, Monomial({"z": 1}))
        assert (x ** (LIMIT - 1) * x).terms == {top: 1}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial({"x": -1})
        with pytest.raises(ValueError):
            Monomial([("x", 2), ("y", -3)])

    def test_monomial_is_not_a_scalar(self):
        with pytest.raises(TypeError):
            x * Monomial({"y": 1})
        with pytest.raises(TypeError):
            Polynomial.constant(Monomial({"y": 1}))
        assert x != Monomial({"x": 1})

    @pytest.mark.parametrize("arrangement", ["reversed", "shuffled"])
    def test_registry_order_does_not_change_output(self, arrangement,
                                                   tmp_path):
        # a fresh interpreter hands out fields in another order before the
        # kernel and oracle fingerprints are taken
        names = ([f"u{i}" for i in range(1, 41)]
                 + [f"x{i}" for i in range(1, 41)] + list("xyzuvw"))
        if arrangement == "reversed":
            names.reverse()
        else:
            random.Random(5).shuffle(names)
        child = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from gatpbench import polynomials
for name in {names!r}:
    polynomials.Monomial({{name: 1}})
assert polynomials._NAMES[1:] == {names!r}
import test_kernel_golden as k, test_oracle_golden as o
from pathlib import Path
print(k.kernel_digest(), o.oracle_digest(Path({str(tmp_path)!r})))
"""
        out = subprocess.run([sys.executable, "-c", child],
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        from test_kernel_golden import GOLDEN_KERNEL_DIGEST
        from test_oracle_golden import GOLDEN_ORACLE_DIGEST
        assert out.stdout.split() == [GOLDEN_KERNEL_DIGEST,
                                      GOLDEN_ORACLE_DIGEST]

    def test_registry_under_threads(self):
        threads, per_thread = 8, 12
        barrier = threading.Barrier(threads)
        made = {}

        def register(t):
            names = [f"thread{t}_{i}" for i in range(per_thread)]
            barrier.wait()
            made[t] = [Monomial({n: i + 1}) for i, n in enumerate(names)]

        workers = [threading.Thread(target=register, args=(t,))
                   for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        fields = {}
        for t, monomials in made.items():
            for i, m in enumerate(monomials):
                name = f"thread{t}_{i}"
                assert m.exps == ((name, i + 1),)
                fields[name] = m.bit_length()
        # one field each: the top bit of every monomial is its own
        assert len(set(fields.values())) == threads * per_thread
        everything = Monomial()
        for t, monomials in made.items():
            product = Monomial()
            for m in monomials:
                product = product * m
                everything = everything * m
            assert product.exps == tuple(sorted(
                (f"thread{t}_{i}", i + 1) for i in range(per_thread)))
            assert product.degree == per_thread * (per_thread + 1) // 2
        assert len(everything.exps) == threads * per_thread
        assert dict(everything.exps) == {
            f"thread{t}_{i}": i + 1
            for t in range(threads) for i in range(per_thread)}


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
