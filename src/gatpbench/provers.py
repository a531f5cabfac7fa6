"""Provers over algebraized systems, plus the exact sampling oracle.

wu_prove triangulates the hypotheses into an ascending chain over the
dependent variables and pseudo-reduces each conclusion through the chain;
a zero final remainder means the conjecture holds generically, modulo the
nonvanishing of the chain initials (reported as ndg conditions).

groebner_prove decides radical membership by adjoining 1 - z*g and testing
whether the Buchberger basis collapses to {1}; generic mode additionally
inverts the product of the nondegeneracy polynomials with a second fresh
variable, mirroring what wu_prove assumes.

numeric_check draws exact rational models of the construction and evaluates
every conclusion with zero tolerance; it refutes modeling mistakes cheaply
and cross-checks prover verdicts.

external_prove runs a prover subprocess on a rendered problem file under
the exit-code protocol: 0 proved, 1 unproved, anything else an error.
"""

from __future__ import annotations

import enum
import functools
import os
import random
import resource
import shlex
import signal
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebraize import PolynomialSystem
from .budget import Deadline, DeadlineExceeded
from .polynomials import Polynomial, TermOrder, pseudo_divide
from . import problems as pr
from .groebner import buchberger, is_unit_basis

TRACE_LIMIT = 1 << 20  # bytes of captured external output


class Status(enum.Enum):
    PROVED = "proved"
    UNPROVED = "unproved"
    TIMEOUT = "timeout"
    ERROR = "error"


class ProverKind(enum.Enum):
    BUILTIN_WU = "builtin-wu"
    BUILTIN_GROEBNER = "builtin-groebner"
    EXTERNAL = "external"


class ReliabilityClass(enum.Enum):
    FORMALLY_VERIFIED = "formally-verified"
    EXTENSIVELY_TESTED = "extensively-tested"
    UNVERIFIED = "unverified"


@dataclass(frozen=True)
class ProofOutcome:
    status: Status
    ndg_conditions: tuple = ()
    trace: str | None = None
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    message: str = ""


@dataclass(frozen=True)
class ProverDescriptor:
    id: str
    kind: ProverKind
    readability_level: int = 1
    reliability: ReliabilityClass = ReliabilityClass.UNVERIFIED
    command_template: str | None = None

    def __post_init__(self):
        if not 1 <= self.readability_level <= 5:
            raise ValueError("readability_level must be in 1..5")
        if self.kind is ProverKind.EXTERNAL:
            if not self.command_template or "{input}" not in self.command_template:
                raise ValueError("external prover needs a command template "
                                 "containing {input}")
        elif self.command_template is not None:
            raise ValueError("command template is for external provers only")


def wu_descriptor(trace: bool = False) -> ProverDescriptor:
    # trace emission lifts the output from a bare verdict to a replayable
    # reduction log, one readability level up
    return ProverDescriptor(
        id="wu", kind=ProverKind.BUILTIN_WU,
        readability_level=2 if trace else 1,
        reliability=ReliabilityClass.EXTENSIVELY_TESTED)


def groebner_descriptor(trace: bool = False) -> ProverDescriptor:
    return ProverDescriptor(
        id="gbm", kind=ProverKind.BUILTIN_GROEBNER,
        readability_level=2 if trace else 1,
        reliability=ReliabilityClass.EXTENSIVELY_TESTED)


def external_descriptor(id: str, command_template: str,
                        readability_level: int = 1,
                        reliability: ReliabilityClass = ReliabilityClass.UNVERIFIED
                        ) -> ProverDescriptor:
    return ProverDescriptor(id=id, kind=ProverKind.EXTERNAL,
                            readability_level=readability_level,
                            reliability=reliability,
                            command_template=command_template)


# ---------------------------------------------------------------------------
# Wu's method

class TriangulateError(Exception):
    pass


class InconsistentSystemError(TriangulateError):
    """Reduction produced a nonzero constant: the hypotheses are contradictory."""


class ParameterConstraintError(TriangulateError):
    """Reduction produced a nonzero polynomial in parameters only."""


@dataclass(frozen=True)
class ChainMember:
    poly: Polynomial
    main_var: str
    initial: Polynomial


def _dep_index(poly: Polynomial, depidx: dict) -> int:
    """Class of poly: highest dependent present, 0 if none."""
    best = 0
    for v in poly.variables():
        i = depidx.get(v, 0)
        if i > best:
            best = i
    return best


def _rank(poly: Polynomial, depidx: dict, depname: dict):
    c = _dep_index(poly, depidx)
    d = poly.degree_in(depname[c]) if c else 0
    return (c, d, len(poly.terms), poly.to_string())


def _check_reduced_pool(pool, depidx):
    for p in pool:
        if _dep_index(p, depidx) == 0:
            if p.is_constant():
                raise InconsistentSystemError(
                    f"hypotheses force {p.constant_value()} = 0")
            raise ParameterConstraintError(
                f"hypotheses constrain the parameters: {p} = 0")


def wu_triangulate(system: PolynomialSystem,
                   deadline: Deadline | None = None) -> list[ChainMember]:
    """Ritt-Wu characteristic chain of the hypotheses over the dependents.

    Repeatedly extracts a basic set (an ascending chain of lowest rank) and
    pseudo-reduces the remaining polynomials by it, adjoining the nonzero
    remainders, until everything else reduces to zero.  Parameters are never
    main variables; a nonzero constant remainder signals an inconsistent
    system.
    """
    depidx = {v.name: v.index for v in system.dependents}
    depname = {v.index: v.name for v in system.dependents}

    pool: list[Polynomial] = []
    for h in system.hypotheses:
        if not h.is_zero() and h not in pool:
            pool.append(h)
    _check_reduced_pool(pool, depidx)
    if not pool:
        return []

    def reduced_wrt(p: Polynomial, member: Polynomial) -> bool:
        mv = depname[_dep_index(member, depidx)]
        return p.degree_in(mv) < member.degree_in(mv)

    while True:
        if deadline is not None:
            deadline.check()
        ranked = sorted(pool, key=lambda p: _rank(p, depidx, depname))
        chain: list[Polynomial] = []
        for p in ranked:
            if not chain:
                chain.append(p)
                continue
            if (_dep_index(p, depidx) > _dep_index(chain[-1], depidx)
                    and all(reduced_wrt(p, m) for m in chain)):
                chain.append(p)
        rest = [p for p in pool if not any(p is q for q in chain)]
        remainders: list[Polynomial] = []
        for p in rest:
            r = p
            for q in reversed(chain):
                mv = depname[_dep_index(q, depidx)]
                if r.degree_in(mv) >= q.degree_in(mv):
                    r = pseudo_divide(r, q, mv, deadline)[1]
            if r.is_zero():
                continue
            remainders.append(r)
        if not remainders:
            return [ChainMember(p, depname[_dep_index(p, depidx)],
                                p.leading_coeff_in(depname[_dep_index(p, depidx)]))
                    for p in chain]
        _check_reduced_pool(remainders, depidx)
        for r in remainders:
            if r not in pool:
                pool.append(r)
        # the basic set never survives unchanged: some remainder has strictly
        # lower rank than a chain member it will displace


def _canonical_ndg(polys) -> tuple:
    """Nonconstant polynomials, made monic under a fixed order, deduplicated."""
    out = []
    for p in polys:
        if p.is_zero() or p.is_constant():
            continue
        names = p.variables()
        order = TermOrder(TermOrder.DEGREVLEX, names)
        q = p.monic(order)
        if q not in out:
            out.append(q)
    out.sort(key=lambda p: p.to_string())
    return tuple(out)


class _ProofRun:
    """Budget, cpu clock and trace lines of one built-in proof attempt."""

    def __init__(self, timeout_seconds: float | None):
        self.deadline = Deadline(timeout_seconds)
        self.t0c = time.thread_time()
        self.lines: list[str] = []

    def outcome(self, status: Status, ndg: tuple = (),
                message: str = "") -> ProofOutcome:
        return ProofOutcome(
            status=status, ndg_conditions=ndg,
            trace="\n".join(self.lines) if self.lines else None,
            cpu_seconds=time.thread_time() - self.t0c,
            wall_seconds=self.deadline.elapsed(), message=message)


def wu_prove(system: PolynomialSystem,
             timeout_seconds: float | None = None,
             trace: bool = False) -> ProofOutcome:
    """Decide every conclusion by successive pseudo-division down the chain.

    Proved means each conclusion's final remainder is exactly zero, i.e. the
    conjecture holds wherever the chain initials and the constructor hints
    do not vanish.
    """
    run = _ProofRun(timeout_seconds)
    deadline = run.deadline
    chain: list[ChainMember] | None = None

    try:
        for i, g in enumerate(system.conclusions, start=1):
            if g.is_zero():
                if trace:
                    run.lines.append(f"conclusion {i}: identically zero")
                continue
            if chain is None:
                chain = wu_triangulate(system, deadline)
                if trace:
                    run.lines.append("ascending chain:")
                    for m in chain:
                        run.lines.append(f"  [{m.main_var}] {m.poly}")
            r = g
            for member in reversed(chain):
                if r.degree_in(member.main_var) >= member.poly.degree_in(member.main_var):
                    r = pseudo_divide(r, member.poly, member.main_var, deadline)[1]
                deadline.check()
            if not r.is_zero():
                run.lines.append(f"conclusion {i}: nonzero final remainder {r}")
                return run.outcome(Status.UNPROVED)
            if trace:
                run.lines.append(f"conclusion {i}: remainder zero")
    except DeadlineExceeded:
        return run.outcome(Status.TIMEOUT)
    except TriangulateError as e:
        return run.outcome(Status.ERROR, message=str(e))

    initials = [m.initial for m in chain] if chain else []
    ndg = _canonical_ndg(list(initials) + list(system.ndg_hints))
    if trace and ndg:
        for p in ndg:
            run.lines.append(f"nondegeneracy: {p} != 0")
    return run.outcome(Status.PROVED, ndg=ndg)


# ---------------------------------------------------------------------------
# Groebner radical membership

GENERIC = "generic"
STRICT = "strict"


def groebner_prove(system: PolynomialSystem,
                   timeout_seconds: float | None = None,
                   mode: str = GENERIC,
                   order_kind: str = TermOrder.DEGREVLEX,
                   trace: bool = False) -> ProofOutcome:
    """Radical-membership prover: g vanishes on V(hypotheses) iff
    1 lies in <hypotheses, 1 - z*g>.  Generic mode additionally inverts the
    product of the Wu nondegeneracy polynomials, so the two built-in provers
    answer the same generically-true question.
    """
    if mode not in (GENERIC, STRICT):
        raise ValueError(f"unknown mode {mode!r}")
    run = _ProofRun(timeout_seconds)
    deadline = run.deadline

    names = ({v.name for v in system.params}
             | {v.name for v in system.dependents})
    assert "z" not in names and "w" not in names

    try:
        ndg: tuple = ()
        extra: list[Polynomial] = []
        if mode == GENERIC:
            chain = wu_triangulate(system, deadline)
            ndg = _canonical_ndg([m.initial for m in chain]
                                 + list(system.ndg_hints))
            if ndg:
                prod = Polynomial.constant(1)
                for p in ndg:
                    prod = prod * p
                extra.append(1 - Polynomial.variable("w") * prod)

        # precedence: fresh inverters first, then dependents newest-first,
        # then parameters
        prec = ["z", "w"]
        prec += [v.name for v in reversed(system.dependents)]
        prec += [v.name for v in reversed(system.params)]
        order = TermOrder(order_kind, prec)

        for i, g in enumerate(system.conclusions, start=1):
            if g.is_zero():
                if trace:
                    run.lines.append(f"conclusion {i}: identically zero")
                continue
            gens = list(system.hypotheses) + extra
            gens.append(1 - Polynomial.variable("z") * g)
            basis = buchberger(gens, order, deadline)
            if not is_unit_basis(basis):
                run.lines.append(
                    f"conclusion {i}: not in the radical "
                    f"(basis of {len(basis)} elements, no unit)")
                return run.outcome(Status.UNPROVED)
            if trace:
                run.lines.append(f"conclusion {i}: radical membership confirmed")
    except DeadlineExceeded:
        return run.outcome(Status.TIMEOUT)
    except TriangulateError as e:
        return run.outcome(Status.ERROR, message=str(e))

    if mode == STRICT:
        ndg = ()
    if trace and ndg:
        for p in ndg:
            run.lines.append(f"nondegeneracy: {p} != 0")
    return run.outcome(Status.PROVED, ndg=ndg)


# ---------------------------------------------------------------------------
# exact numeric sampling oracle

SAMPLE_BOUND = 10_000
RETRY_CAP = 64


class DegenerateExhaustedError(Exception):
    """Every retry drew a degenerate configuration."""


@dataclass(frozen=True)
class Consistent:
    samples: int


@dataclass(frozen=True)
class Counterexample:
    model: dict                 # point -> (Fraction, Fraction)
    env: dict                   # variable name -> Fraction
    conclusion_index: int
    value: Fraction


def _rand(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND))


def solve_construction(problem: pr.Problem, rng: random.Random):
    """One exact rational model of the construction, or None when the draw
    hits a degenerate configuration (vertical base line, parallel lines,
    flat triangle)."""
    draw = functools.partial(_rand, rng)
    pts: dict = {}
    for step in problem.steps:
        xy = step.solve(pts, draw)
        if xy is None:
            return None
        pts[step.point] = xy
    return pts


def _has_random_choice(problem: pr.Problem) -> bool:
    return any(pr.PARAM in s.roles for s in problem.steps)


def _model_env(system: PolynomialSystem, model: dict) -> dict:
    env = {}
    for point, (cx, cy) in system.assignment.items():
        vx, vy = model[point]
        for coord, val in ((cx, vx), (cy, vy)):
            if hasattr(coord, "name"):
                env[coord.name] = val
    return env


def numeric_check(system: PolynomialSystem, samples: int, seed: int,
                  avoid=(), retry_cap: int = RETRY_CAP):
    """Evaluate every conclusion on exact random models of the hypotheses.

    avoid lists polynomials (e.g. a prover's ndg conditions) that must be
    nonzero at each accepted model.  Zero tolerance: any nonzero conclusion
    value is a Counterexample.  A construction with no random choice is
    checked on its single model.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    effective = samples if _has_random_choice(system.problem) else 1
    for _ in range(effective):
        model = None
        for _attempt in range(retry_cap):
            candidate = solve_construction(system.problem, rng)
            if candidate is None:
                continue
            env = _model_env(system, candidate)
            if any(a.evaluate(env) == 0 for a in avoid):
                continue
            model = candidate
            break
        if model is None:
            raise DegenerateExhaustedError(
                f"no admissible model after {retry_cap} draws")
        for h in system.hypotheses:
            if h.evaluate(env) != 0:
                raise AssertionError(
                    "sampled model violates a hypothesis; constructor and "
                    "algebraization disagree")
        for idx, g in enumerate(system.conclusions):
            value = g.evaluate(env)
            if value != 0:
                return Counterexample(model=model, env=env,
                                      conclusion_index=idx, value=value)
    return Consistent(samples=effective)


# ---------------------------------------------------------------------------
# external prover adapter

class SpawnFailureError(Exception):
    """The external prover process could not be started."""


def external_prove(descriptor: ProverDescriptor, problem_file: str,
                   timeout_seconds: float | None = None) -> ProofOutcome:
    """Run an external prover on a problem file under the exit-code protocol.

    Exit 0 is proved, 1 unproved, anything else an error; overrunning the
    budget kills the process and reports a timeout.  Stdout is kept as the
    trace, truncated to 1 MiB.  Child CPU time is read from the process
    accounting of reaped children, so concurrent external runs may blur
    attribution (wall time is always per-run exact).
    """
    if descriptor.kind is not ProverKind.EXTERNAL:
        raise ValueError("descriptor does not describe an external prover")
    argv = [tok.replace("{input}", str(problem_file))
            for tok in shlex.split(descriptor.command_template)]
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()

    def child_cpu() -> float:
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    try:
        # own process group, so a timeout can take down helper children too
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
    except OSError as e:
        raise SpawnFailureError(f"cannot start {argv[0]!r}: {e}") from e
    try:
        out, _ = proc.communicate(timeout=timeout_seconds)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        return ProofOutcome(status=Status.TIMEOUT,
                            cpu_seconds=child_cpu(),
                            wall_seconds=time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    trace = out[:TRACE_LIMIT].decode("utf-8", errors="replace") if out else ""
    if proc.returncode == 0:
        status, message = Status.PROVED, ""
    elif proc.returncode == 1:
        status, message = Status.UNPROVED, ""
    else:
        status, message = Status.ERROR, f"exit code {proc.returncode}"
    return ProofOutcome(status=status, trace=trace,
                        cpu_seconds=child_cpu(), wall_seconds=wall,
                        message=message)
