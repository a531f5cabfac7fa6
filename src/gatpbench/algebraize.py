"""Turn a constructive problem into polynomial hypotheses and conclusions.

Coordinates follow the construction and each step's declared roles: Fixed
points get exact constants, each Free point two fresh parameters u*, and
every constrained point gets either a parameter/dependent pair (semi-free
constructors: on_line, on_circle take the abscissa as a free parameter) or
two dependents x*.  A step's hypotheses are the equations of the
predicates it asserts, emitted in construction order, so step i never
mentions a dependent introduced later.  Constructor-level solvability
assumptions (the steps' ndg hints: line AB not vertical, lines not
parallel, base points distinct, triangle not flat) are collected alongside
the system.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import problems as pr
from .problems import DEPENDENT, PARAM
from .polynomials import Polynomial, as_polynomial


class AlgebraizeError(Exception):
    pass


class DegenerateConstructionError(AlgebraizeError):
    """A step's equations do not constrain the point it introduces."""


@dataclass(frozen=True)
class Variable:
    name: str        # "u3" or "x5"
    kind: str        # PARAM or DEPENDENT
    index: int       # 1-based within its kind, dense in construction order
    point: str
    axis: str        # "x" or "y"


@dataclass(frozen=True)
class PolynomialSystem:
    hypotheses: tuple
    conclusions: tuple
    params: tuple
    dependents: tuple
    ndg_hints: tuple
    assignment: dict          # point -> (coord, coord); each an exact constant or Variable
    problem: pr.Problem


def _coord_poly(c) -> Polynomial:
    if isinstance(c, Variable):
        return Polynomial.variable(c.name)
    return as_polynomial(c)


class _Coords:
    """Coordinate lookup plus the common geometric polynomial forms."""

    def __init__(self, assignment):
        self.assignment = assignment

    def x(self, p: str) -> Polynomial:
        return _coord_poly(self.assignment[p][0])

    def y(self, p: str) -> Polynomial:
        return _coord_poly(self.assignment[p][1])

    def cross(self, a, b, c, d) -> Polynomial:
        """(b - a) x (d - c); zero iff the segments are parallel."""
        return ((self.x(b) - self.x(a)) * (self.y(d) - self.y(c))
                - (self.y(b) - self.y(a)) * (self.x(d) - self.x(c)))

    def dot(self, a, b, c, d) -> Polynomial:
        """(b - a) . (d - c); zero iff the segments are perpendicular."""
        return ((self.x(b) - self.x(a)) * (self.x(d) - self.x(c))
                + (self.y(b) - self.y(a)) * (self.y(d) - self.y(c)))

    def dist2(self, a, b) -> Polynomial:
        return ((self.x(b) - self.x(a)) ** 2 + (self.y(b) - self.y(a)) ** 2)

    def collinear(self, p, a, b) -> Polynomial:
        return self.cross(p, a, p, b)


def translate_predicate(pred, assignment) -> list[Polynomial]:
    """Polynomial form(s) of a predicate; degenerate ones become zero."""
    return pred.equations(_Coords(assignment))


def algebraize(problem: pr.Problem) -> PolynomialSystem:
    assignment: dict = {}
    params: list[Variable] = []
    dependents: list[Variable] = []
    hypotheses: list[Polynomial] = []
    ndg_hints: list[Polynomial] = []
    co = _Coords(assignment)

    def coordinate(step, axis, role):
        if role == pr.CONSTANT:
            return getattr(step, axis)
        pool, prefix = ((params, "u") if role == PARAM
                        else (dependents, "x"))
        v = Variable(f"{prefix}{len(pool) + 1}", role, len(pool) + 1,
                     step.point, axis)
        pool.append(v)
        return v

    for step in problem.steps:
        p = step.point
        rx, ry = step.roles
        assignment[p] = (coordinate(step, "x", rx), coordinate(step, "y", ry))
        added = [eq for pred in step.asserts() for eq in pred.equations(co)]
        hint = step.ndg_hint(co)
        if hint is not None:
            ndg_hints.append(hint)

        # each new dependent must actually be constrained by this step
        for v in assignment[p]:
            if (isinstance(v, Variable) and v.kind == DEPENDENT
                    and not any(eq.degree_in(v.name) > 0 for eq in added)):
                raise DegenerateConstructionError(
                    f"step for {p} leaves {v.name} unconstrained "
                    f"(degenerate arguments?)")
        hypotheses.extend(added)

    conclusions: list[Polynomial] = []
    for conj in problem.conjectures:
        conclusions.extend(translate_predicate(conj, assignment))

    return PolynomialSystem(
        hypotheses=tuple(hypotheses),
        conclusions=tuple(conclusions),
        params=tuple(params),
        dependents=tuple(dependents),
        ndg_hints=tuple(h for h in ndg_hints if not h.is_zero()),
        assignment=assignment,
        problem=problem,
    )
