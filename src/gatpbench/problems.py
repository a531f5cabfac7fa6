"""Constructive geometry problems: model, text format, validation.

One statement per line; '#' starts a comment; blank lines are ignored.
Lines of the form "# meta: ..." directly under the header are kept as the
problem's free-text description and survive render/parse round trips.

    problem IDENT
    fixed IDENT RAT RAT        introduce a point at exact coordinates
    free IDENT                 introduce an unconstrained point
    midpoint M A B             M is the midpoint of A and B
    on_line P A B              P lies on the line through A and B
    inter P A B C D            P is the intersection of lines AB and CD
    foot F P A B               F is the foot of the perpendicular from P to AB
    on_circle P O A            P lies on the circle centred at O through A
    circumcenter O A B C       O is the circumcenter of triangle ABC
    conjecture PRED ARGS       at least one, after all construction lines

Predicates: collinear A B C, parallel A B C D, perpendicular A B C D,
eqdist A B C D, midpoint_of M A B, on_circle_of P O A.

RAT is an integer or integer/integer, normalised to lowest terms.

Lines are those that str.splitlines() yields, so a vertical tab, a form
feed, \\x1c to \\x1e, \\x85, U+2028 or U+2029 ends a line as a newline
does, and any Unicode whitespace separates tokens.  A ParseError locates
the token it rejects: its line is 1-based, counted as str.splitlines()
counts lines, and its column is the token's 1-based character index in
the raw line, where a tab counts as one column.

Each construct is declared once, as one class below whose class statement
names its keyword, e.g. `class Midpoint(Step, keyword="midpoint")`;
defining the class registers it.  Parsing, rendering, validation,
algebraization and the sampling oracle all read that declaration and know
no construct by name.  The annotated fields are the arguments in text
order (a Fraction field is a RAT, any other an IDENT); `Record`, the base
of every record but the store row, makes each construct an immutable value.

A predicate declares its polynomial `equations` and the `degenerate`
reason that makes them vacuous.  A step's first field is the point it
introduces; it declares the `roles` of that point's x and y coordinates
(PARAM, DEPENDENT or CONSTANT), the predicates its hypotheses assert
(`asserts`), its `ndg_hint`, its exact solver (`solve`) and its
`degenerate` reason; it may also reject its own text outright
(`parse_error`).  Adding a construct means adding one such class.  Every
step's asserted predicates must hold on every model its solver returns,
and every DEPENDENT coordinate must occur in some asserted equation.

A solver works in integer homogeneous coordinates: it takes and returns
each point as an int triple (X, Y, W) standing for (X/W, Y/W), normalised
by `homogeneous`, and its random choices are ints, so drawing a model
builds no Fraction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# coordinate roles of a step's new point
PARAM = "param"            # a free parameter, drawn at random by the oracle
DEPENDENT = "dependent"    # determined by the step's asserted equations
CONSTANT = "constant"      # the step's own x / y field


# ---------------------------------------------------------------------------
# errors and warnings

class ParseError(ValueError):
    """Base for all problem-text errors; carries 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class ProblemSyntaxError(ParseError):
    pass


class UndefinedPointError(ParseError):
    def __init__(self, line, col, name):
        super().__init__(line, col, f"point {name} is not defined")
        self.name = name


class DuplicatePointError(ParseError):
    def __init__(self, line, col, name):
        super().__init__(line, col, f"point {name} is already defined")
        self.name = name


class BadArityError(ParseError):
    def __init__(self, line, col, keyword, expected, got):
        super().__init__(line, col,
                         f"{keyword} takes {expected} points, got {got}")
        self.keyword = keyword


class Record:
    """Base of the immutable value records: a subclass's annotated names are
    its fields, in order, and a class-body value is a default.  An instance
    is built by position or keyword, equals and hashes by class and fields,
    refuses assignment and deletion, and is checked by __post_init__."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # straight into the instance dict, past __setattr__: every parsed
        # construct is built here, so this stays one C-level update
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values of a call that names or leaves out fields."""
        try:
            rest = [kwargs.pop(f) if f in kwargs else vars(type(self))[f]
                    for f in self._fields[len(args):]]
        except KeyError as e:
            raise TypeError(f"{type(self).__name__} is missing {e}") from None
        if kwargs or len(args) > len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {self._fields}: "
                            f"{len(args)} positional, {sorted(kwargs)} unused")
        return [*args, *rest]

    def __post_init__(self):
        """Check the fields; the base accepts any."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.args())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def args(self) -> tuple:
        """The fields' values in order (__init__ is the only writer of the
        instance dict, so it holds exactly the fields, in order)."""
        return tuple(vars(self).values())


class ValidationWarning(Record):
    kind: str          # "degenerate-predicate" | "degenerate-step" | "unused-point"
    subject: str
    detail: str


class _Construct(Record):
    """Base of the declarations.  A subclass names its keyword in its class
    statement and is registered under it in its family's table."""

    def __init_subclass__(cls, keyword: str | None = None, **kw):
        super().__init_subclass__(**kw)
        if keyword is None:  # a family base, Predicate or Step
            return
        cls.keyword = keyword
        # argument kinds in text order, read off the field annotations
        cls._form = tuple("RAT" if t in ("Fraction", Fraction) else "IDENT"
                          for t in cls.__annotations__.values())
        cls._template = keyword + " %s" * len(cls._form)
        cls._table[keyword] = cls

    def render(self) -> str:
        return self._template % self.args()

    def degenerate(self) -> str | None:
        """Why the construct is vacuous or undetermined, or None."""
        return None


# ---------------------------------------------------------------------------
# predicates; `co` is algebraize's coordinate helper

PREDICATES: dict = {}   # keyword -> predicate class


class Predicate(_Construct):
    """A conjecture form; each subclass declares one."""

    _table = PREDICATES

    def equations(self, co) -> list:
        """Polynomials that vanish exactly where the predicate holds."""
        raise NotImplementedError


class Collinear(Predicate, keyword="collinear"):
    a: str
    b: str
    c: str

    def equations(self, co):
        return [co.collinear(self.a, self.b, self.c)]

    def degenerate(self):
        if len({self.a, self.b, self.c}) < 3:
            return "repeated point makes collinearity vacuous"
        return None


class Parallel(Predicate, keyword="parallel"):
    a: str
    b: str
    c: str
    d: str

    def equations(self, co):
        return [co.cross(self.a, self.b, self.c, self.d)]

    def degenerate(self):
        if self.a == self.b or self.c == self.d:
            return "a zero-length segment is parallel to anything"
        if {self.a, self.b} == {self.c, self.d}:
            return "a line is trivially parallel to itself"
        return None


class Perpendicular(Predicate, keyword="perpendicular"):
    a: str
    b: str
    c: str
    d: str

    def equations(self, co):
        return [co.dot(self.a, self.b, self.c, self.d)]

    def degenerate(self):
        if self.a == self.b or self.c == self.d:
            return "a zero-length segment is perpendicular to anything"
        return None


class EqDist(Predicate, keyword="eqdist"):
    a: str
    b: str
    c: str
    d: str

    def equations(self, co):
        return [co.dist2(self.a, self.b) - co.dist2(self.c, self.d)]

    def degenerate(self):
        if {self.a, self.b} == {self.c, self.d}:
            return "a segment always equals itself"
        if self.a == self.b and self.c == self.d:
            return "two zero-length segments are always equal"
        return None


class MidpointOf(Predicate, keyword="midpoint_of"):
    m: str
    a: str
    b: str

    def equations(self, co):
        return [2 * co.x(self.m) - co.x(self.a) - co.x(self.b),
                2 * co.y(self.m) - co.y(self.a) - co.y(self.b)]

    def degenerate(self):
        if self.m == self.a == self.b:
            return "a point is trivially the midpoint of itself"
        return None


class OnCircleOf(Predicate, keyword="on_circle_of"):
    p: str
    center: str
    through: str

    def equations(self, co):
        return [co.dist2(self.center, self.p)
                - co.dist2(self.center, self.through)]

    def degenerate(self):
        if self.p == self.through:
            return "the defining point is trivially on its circle"
        return None


# ---------------------------------------------------------------------------
# construction steps; `pts` maps earlier points to integer homogeneous
# coordinates and `draw()` returns a random int

STEPS: dict = {}   # keyword -> step class


def homogeneous(x: int, y: int, w: int) -> tuple:
    """The point (x/w, y/w) as (X, Y, W) with W > 0 and gcd(X, Y, W) = 1;
    w must not be zero."""
    if w < 0:
        x, y, w = -x, -y, -w
    g = math.gcd(x, y, w)
    return x // g, y // g, w // g


def rational_point(p: tuple) -> tuple:
    """The (Fraction, Fraction) coordinates of a homogeneous point."""
    x, y, w = p
    return Fraction(x, w), Fraction(y, w)


class Step(_Construct):
    """A construction step; each subclass declares one."""

    _table = STEPS
    roles = (DEPENDENT, DEPENDENT)

    def asserts(self) -> tuple:
        """Predicates whose equations are this step's hypotheses."""
        return ()

    def ndg_hint(self, co):
        """Polynomial that must not vanish for the step to be solvable."""
        return None

    def parse_error(self) -> str | None:
        """Why the text of this step is rejected outright, or None."""
        return None

    def solve(self, pts, draw):
        """The new point as a normalised (X, Y, W) int triple (see
        homogeneous), or None on a degenerate draw."""
        raise NotImplementedError


class Free(Step, keyword="free"):
    point: str
    roles = (PARAM, PARAM)

    def solve(self, pts, draw):
        return draw(), draw(), 1


class Fixed(Step, keyword="fixed"):
    point: str
    x: Fraction
    y: Fraction
    roles = (CONSTANT, CONSTANT)

    def solve(self, pts, draw):
        x, y = self.x, self.y
        return homogeneous(x.numerator * y.denominator,
                           y.numerator * x.denominator,
                           x.denominator * y.denominator)


class Midpoint(Step, keyword="midpoint"):
    point: str
    a: str
    b: str

    def asserts(self):
        return (MidpointOf(self.point, self.a, self.b),)

    def solve(self, pts, draw):
        (xa, ya, wa), (xb, yb, wb) = pts[self.a], pts[self.b]
        return homogeneous(xa * wb + xb * wa, ya * wb + yb * wa, 2 * wa * wb)


class OnLine(Step, keyword="on_line"):
    point: str
    a: str
    b: str
    roles = (PARAM, DEPENDENT)

    def asserts(self):
        return (Collinear(self.point, self.a, self.b),)

    def ndg_hint(self, co):
        return co.x(self.b) - co.x(self.a)

    def degenerate(self):
        if self.a == self.b:
            return "line through a single point is undetermined"
        return None

    def solve(self, pts, draw):
        (xa, ya, wa), (xb, yb, wb) = pts[self.a], pts[self.b]
        # (dx, dy) = (b - a) * wa * wb
        dx, dy = xb * wa - xa * wb, yb * wa - ya * wb
        if dx == 0:
            return None
        x = draw()
        return homogeneous(x * wa * dx, ya * dx + (x * wa - xa) * dy, wa * dx)


def _line(xa, ya, wa, xb, yb, wb) -> tuple:
    """The line through two homogeneous points, as their cross product."""
    return ya * wb - wa * yb, wa * xb - xa * wb, xa * yb - ya * xb


class InterLL(Step, keyword="inter"):
    point: str
    a: str
    b: str
    c: str
    d: str

    def asserts(self):
        return (Collinear(self.point, self.a, self.b),
                Collinear(self.point, self.c, self.d))

    def ndg_hint(self, co):
        return co.cross(self.a, self.b, self.c, self.d)

    def degenerate(self):
        if self.a == self.b or self.c == self.d:
            return "a defining line collapses to a point"
        return None

    def parse_error(self):
        if {self.a, self.b} == {self.c, self.d}:
            return "inter: the two lines coincide"
        return None

    def solve(self, pts, draw):
        a1, b1, c1 = _line(*pts[self.a], *pts[self.b])
        a2, b2, c2 = _line(*pts[self.c], *pts[self.d])
        # w is the cross product of the two directions times every input w
        w = a1 * b2 - a2 * b1
        if w == 0:
            return None
        return homogeneous(b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, w)


class Foot(Step, keyword="foot"):
    point: str
    src: str
    a: str
    b: str

    def asserts(self):
        return (Collinear(self.point, self.a, self.b),
                Perpendicular(self.src, self.point, self.a, self.b))

    def ndg_hint(self, co):
        return co.dist2(self.a, self.b)

    def degenerate(self):
        if self.a == self.b:
            return "foot on a zero-length segment is undetermined"
        return None

    def solve(self, pts, draw):
        (xp, yp, wp) = pts[self.src]
        (xa, ya, wa), (xb, yb, wb) = pts[self.a], pts[self.b]
        # (dx, dy) = (b - a) * wa * wb and (px, py) = (p - a) * wa * wp
        dx, dy = xb * wa - xa * wb, yb * wa - ya * wb
        d2 = dx * dx + dy * dy
        if d2 == 0:
            return None
        px, py = xp * wa - xa * wp, yp * wa - ya * wp
        # a + t * (b - a) with t = (px * dx + py * dy) * wb / (wp * d2)
        t = px * dx + py * dy
        w = wp * d2
        return homogeneous(xa * w + t * dx, ya * w + t * dy, wa * w)


class OnCircle(Step, keyword="on_circle"):
    point: str
    center: str
    through: str
    roles = (PARAM, DEPENDENT)

    def asserts(self):
        return (OnCircleOf(self.point, self.center, self.through),)

    def degenerate(self):
        if self.center == self.through:
            return "circle of radius zero"
        return None

    def solve(self, pts, draw):
        (xo, yo, wo) = pts[self.center]
        (xa, ya, wa) = pts[self.through]
        # rational point on the unit circle via the half-angle chord:
        # (c, s) = (1 - t*t, 2*t) / den
        t = draw()
        den = 1 + t * t
        c, s = 1 - t * t, 2 * t
        # (vx, vy) = (a - o) * wa * wo
        vx, vy = xa * wo - xo * wa, ya * wo - yo * wa
        return homogeneous(xo * wa * den + c * vx - s * vy,
                           yo * wa * den + s * vx + c * vy, wo * wa * den)


class Circumcenter(Step, keyword="circumcenter"):
    point: str
    a: str
    b: str
    c: str

    def asserts(self):
        return (EqDist(self.point, self.a, self.point, self.b),
                EqDist(self.point, self.a, self.point, self.c))

    def ndg_hint(self, co):
        return co.collinear(self.a, self.b, self.c)

    def degenerate(self):
        if len({self.a, self.b, self.c}) < 3:
            return "circumcenter of a degenerate triangle"
        return None

    def solve(self, pts, draw):
        (xa, ya, wa), (xb, yb, wb) = pts[self.a], pts[self.b]
        (xc, yc, wc) = pts[self.c]
        # with a at the origin, (bx, by) = (b - a) * wa * wb and
        # (cx, cy) = (c - a) * wa * wc
        bx, by = xb * wa - xa * wb, yb * wa - ya * wb
        cx, cy = xc * wa - xa * wc, yc * wa - ya * wc
        det = bx * cy - by * cx
        if det == 0:
            return None
        # the centre is a + (cy*|b|^2 - by*|c|^2, bx*|c|^2 - cx*|b|^2)
        # / (2*det) for b and c taken from a; scaled, that is
        # a + (cy*b2 - by*c2, bx*c2 - cx*b2) / (wa * w)
        b2, c2 = (bx * bx + by * by) * wc, (cx * cx + cy * cy) * wb
        w = 2 * det * wb * wc
        return homogeneous(xa * w + cy * b2 - by * c2,
                           ya * w + bx * c2 - cx * b2, wa * w)


class Problem(Record):
    id: str
    steps: tuple
    conjectures: tuple
    meta: str | None = None

    def __post_init__(self):
        if not self.conjectures:
            raise ValueError("a problem needs at least one conjecture")


# ---------------------------------------------------------------------------
# parsing

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RAT = re.compile(r"-?\d+(?:/\d+)?\Z")
_TOKEN = re.compile(r"\S+")   # the tokens str.split() yields, located
_META = re.compile(r"^#[ \t]?meta:[ \t]?(.*)$")


def _column(line: str, i: int) -> int:
    """The 1-based column of the i-th token of a line; only an error needs
    it, so the parser splits lines without locating their tokens."""
    # a '#' comment only follows the tokens before it, so no cut is needed
    return [m.start() for m in _TOKEN.finditer(line)][i] + 1


def _parse_rational(tok: str) -> Fraction:
    """The value of a RAT literal; a ValueError says what is wrong with it."""
    if not _RAT.match(tok):
        raise ValueError(f"bad rational literal {tok!r}")
    num, _, den = tok.partition("/")
    try:
        den = int(den or 1)
        if den:
            return Fraction(int(num), den)
    except ValueError:  # a numeral past the interpreter's int-string limit
        raise ValueError(f"rational literal of {len(tok)} characters has "
                         "too many digits") from None
    raise ValueError("zero denominator")


def _undefined(line: str, lineno: int, i: int, name: str) -> ParseError:
    """The error for the i-th token of a line, which names no point declared
    so far (a declared name has passed _IDENT)."""
    col = _column(line, i)
    if not _IDENT.match(name):
        return ProblemSyntaxError(lineno, col, f"bad identifier {name!r}")
    return UndefinedPointError(lineno, col, name)


def _step_arity_message(cls, got: int) -> str:
    # a step over earlier points counts them; the others spell out their form
    form = cls._form
    if len(form) > 1 and "RAT" not in form:
        return f"{cls.keyword} takes {len(form)} points, got {got}"
    return f"{cls.keyword} takes {' '.join(form)}"


def parse_problem(text: str) -> Problem:
    """Parse problem text; identical input bytes give identical Problems."""
    problem_id = None
    meta_lines: list[str] = []
    steps: list = []
    conjectures: list = []
    declared: set[str] = set()
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if problem_id is not None and not steps and not conjectures:
            m = _META.match(raw.strip())
            if m:
                meta_lines.append(m.group(1))
                continue
        toks = raw.partition("#")[0].split()
        if not toks:
            continue
        last_line = lineno
        keyword = toks[0]

        if problem_id is None:
            if keyword != "problem":
                raise ProblemSyntaxError(lineno, _column(raw, 0),
                                         "expected 'problem IDENT' header")
            if len(toks) != 2:
                raise ProblemSyntaxError(lineno, _column(raw, 0),
                                         "header is 'problem IDENT'")
            problem_id = toks[1]
            if not _IDENT.match(problem_id):
                raise ProblemSyntaxError(lineno, _column(raw, 1),
                                         f"bad identifier {problem_id!r}")
            continue

        if keyword == "conjecture":
            if len(toks) < 2:
                raise ProblemSyntaxError(lineno, _column(raw, 0),
                                         "conjecture needs a predicate")
            pred = toks[1]
            cls = PREDICATES.get(pred)
            if cls is None:
                raise ProblemSyntaxError(lineno, _column(raw, 1),
                                         f"unknown predicate {pred!r}")
            args = toks[2:]
            if len(args) != len(cls._form):
                raise BadArityError(lineno, _column(raw, 1), pred,
                                    len(cls._form), len(args))
            for i, name in enumerate(args, 2):
                if name not in declared:
                    raise _undefined(raw, lineno, i, name)
            conjectures.append(cls(*args))
            continue

        cls = STEPS.get(keyword)
        if cls is None:
            raise ProblemSyntaxError(lineno, _column(raw, 0),
                                     f"unknown statement {keyword!r}")
        if conjectures:
            raise ProblemSyntaxError(lineno, _column(raw, 0),
                                     "construction statements must precede conjectures")
        form = cls._form
        if len(toks) - 1 != len(form):
            raise ProblemSyntaxError(lineno, _column(raw, 0),
                                     _step_arity_message(cls, len(toks) - 1))
        point = toks[1]
        if not _IDENT.match(point):
            raise ProblemSyntaxError(lineno, _column(raw, 1),
                                     f"bad identifier {point!r}")
        if point in declared:
            raise DuplicatePointError(lineno, _column(raw, 1), point)
        values = [point]
        for i, kind in enumerate(form[1:], 2):
            tok = toks[i]
            if kind == "RAT":
                try:
                    values.append(_parse_rational(tok))
                except ValueError as e:
                    raise ProblemSyntaxError(lineno, _column(raw, i),
                                             e.args[0]) from None
            elif tok in declared:
                values.append(tok)
            else:
                raise _undefined(raw, lineno, i, tok)
        step = cls(*values)
        reason = step.parse_error()
        if reason:
            raise ProblemSyntaxError(lineno, _column(raw, 0), reason)
        steps.append(step)
        declared.add(point)

    if problem_id is None:
        raise ProblemSyntaxError(max(last_line, 1), 1, "missing problem header")
    if not conjectures:
        raise ProblemSyntaxError(last_line, 1, "missing conjecture")
    return Problem(problem_id, tuple(steps), tuple(conjectures),
                   "\n".join(meta_lines) if meta_lines else None)


# ---------------------------------------------------------------------------
# rendering

def render_problem(p: Problem) -> str:
    """Canonical text; parse_problem(render_problem(p)) equals p."""
    out = [f"problem {p.id}"]
    if p.meta:
        out.extend(f"# meta: {line}" for line in p.meta.splitlines())
    out.extend(s.render() for s in p.steps)
    out.extend(f"conjecture {c.render()}" for c in p.conjectures)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation

def validate_problem(p: Problem) -> list[ValidationWarning]:
    """Deterministic structural warnings; never raises on a parsed Problem."""
    warnings: list[ValidationWarning] = []
    for s in p.steps:
        reason = s.degenerate()
        if reason:
            warnings.append(ValidationWarning("degenerate-step", s.point, reason))
    for i, c in enumerate(p.conjectures):
        reason = c.degenerate()
        if reason:
            warnings.append(ValidationWarning(
                "degenerate-predicate", f"conjecture {i + 1}", reason))
    # points named after the one a step introduces; rationals are not points
    used = {a for s in p.steps for a in s.args()[1:] if isinstance(a, str)}
    for c in p.conjectures:
        used.update(c.args())
    for s in p.steps:
        if s.point not in used:
            warnings.append(ValidationWarning(
                "unused-point", s.point, "introduced but never referenced"))
    return warnings
