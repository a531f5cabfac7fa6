"""Provers over algebraized systems, plus the exact sampling oracle.

wu_prove triangulates the hypotheses into an ascending chain over the
dependent variables and pseudo-reduces each conclusion through the chain;
a zero final remainder means the conjecture holds generically, modulo the
nonvanishing of the chain initials (reported as ndg conditions).
Triangulation works out each pool member's rank key and each chain
member's main-variable degree once, when the member is made.

groebner_prove decides radical membership by adjoining 1 - z*g and testing
whether the Buchberger basis collapses to {1}; it inverts each
nondegeneracy polynomial d_k with its own fresh variable, 1 - w_k*d_k,
mirroring what wu_prove assumes.

numeric_check draws exact rational models of the construction, solved in
integer homogeneous coordinates, and evaluates every conclusion with zero
tolerance: each polynomial is turned into integer term rows once per call,
and each model is one list of values over one common denominator, so a
check sums int products; it refutes modeling mistakes cheaply and
cross-checks prover verdicts.

external_prove runs a prover subprocess on a rendered problem file under
the exit-code protocol: 0 proved, 1 unproved, anything else an error.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import os
import random
import threading
import time
from fractions import Fraction
from operator import itemgetter

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
    BUILTIN = "builtin"
    EXTERNAL = "external"


class ReliabilityClass(enum.Enum):
    FORMALLY_VERIFIED = "formally-verified"
    EXTENSIVELY_TESTED = "extensively-tested"
    UNVERIFIED = "unverified"


class ProofOutcome(pr.Record):
    status: Status
    ndg_conditions: tuple = ()
    trace: str | None = None
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    message: str = ""


class ProverDescriptor(pr.Record):
    id: str
    kind: ProverKind
    readability_level: int = 1
    reliability: ReliabilityClass = ReliabilityClass.UNVERIFIED
    command_template: str | None = None

    def __post_init__(self):
        # the id is a store field and a --provers list item
        if "," in self.id or self.id.split() != [self.id]:
            raise ValueError(f"bad prover id {self.id!r} (one word, no comma)")
        if not 1 <= self.readability_level <= 5:
            raise ValueError("readability_level must be in 1..5")
        if self.kind is ProverKind.EXTERNAL:
            if not self.command_template or "{input}" not in self.command_template:
                raise ValueError("external prover needs a command template "
                                 "containing {input}")
            import shlex
            shlex.split(self.command_template)  # ValueError if it won't split
        elif self.command_template is not None:
            raise ValueError("command template is for external provers only")
        elif self.id not in BUILTINS:
            raise ValueError(f"unknown built-in prover {self.id!r}")


def builtin_descriptor(id: str) -> ProverDescriptor:
    """The descriptor of the BUILTINS entry id."""
    return ProverDescriptor(id=id, kind=ProverKind.BUILTIN,
                            reliability=ReliabilityClass.EXTENSIVELY_TESTED)


wu_descriptor = functools.partial(builtin_descriptor, "wu")
groebner_descriptor = functools.partial(builtin_descriptor, "gbm")


def external_descriptor(id: str, command_template: str) -> ProverDescriptor:
    """An external prover at the least-trusted defaults: readability 1,
    unverified."""
    return ProverDescriptor(id=id, kind=ProverKind.EXTERNAL,
                            command_template=command_template)


# ---------------------------------------------------------------------------
# Wu's method

class TriangulateError(Exception):
    pass


class InconsistentSystemError(TriangulateError):
    """Reduction produced a nonzero constant: the hypotheses are contradictory."""


class ParameterConstraintError(TriangulateError):
    """Reduction produced a nonzero polynomial in parameters only."""


class ChainMember(pr.Record):
    poly: Polynomial
    main_var: str
    initial: Polynomial
    degree: int         # poly's degree in main_var


def _dep_index(poly: Polynomial, depidx: dict) -> int:
    """Class of poly: highest dependent present, 0 if none."""
    best = 0
    for v in poly.variables():
        i = depidx.get(v, 0)
        if i > best:
            best = i
    return best


def _pool_entry(poly: Polynomial, depidx: dict, depname: dict) -> tuple:
    """(rank key, poly), the rank key being (class, degree in the class
    variable, term count); to_string() breaks ties (_by_rank)."""
    c = _dep_index(poly, depidx)
    return (c, poly.degree_in(depname[c]) if c else 0, len(poly.terms)), poly


def _by_rank(pool: list) -> list:
    """pool's entries in ascending (rank key, to_string()) order, printing
    only the polynomials whose rank keys tie."""
    ranked = sorted(pool, key=itemgetter(0))
    out = []
    for _, tied in itertools.groupby(ranked, key=itemgetter(0)):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda e: e[1].to_string())
        out += tied
    return out


def _check_reduced_pool(entries):
    for (c, _, _), p in entries:
        if c == 0:
            if p.is_constant():
                raise InconsistentSystemError(
                    f"hypotheses force {p.constant_value()} = 0")
            raise ParameterConstraintError(
                f"hypotheses constrain the parameters: {p} = 0")


def _remainder(p: Polynomial, chain: list[ChainMember],
               deadline: Deadline) -> Polynomial:
    """Successive pseudo-remainder of p down the chain, last member first."""
    for m in reversed(chain):
        if p.degree_in(m.main_var) >= m.degree:
            p = pseudo_divide(p, m.poly, m.main_var, deadline)[1]
        deadline.check()
    return p


def wu_triangulate(system: PolynomialSystem,
                   deadline: Deadline | None = None) -> list[ChainMember]:
    """Ritt-Wu characteristic chain of the hypotheses over the dependents.

    Repeatedly extracts a basic set (an ascending chain of lowest rank) and
    pseudo-reduces the remaining polynomials by it, adjoining the nonzero
    remainders, until everything else reduces to zero.  Parameters are never
    main variables; a nonzero constant remainder signals an inconsistent
    system.
    """
    deadline = deadline or Deadline()
    depidx = {v.name: v.index for v in system.dependents}
    depname = {v.index: v.name for v in system.dependents}

    pool: list[tuple] = []      # (rank key, poly), see _pool_entry
    chain: list[ChainMember] = []
    new = [_pool_entry(h, depidx, depname)
           for h in system.hypotheses if not h.is_zero()]
    while new:
        _check_reduced_pool(new)
        for e in new:
            if all(e[1] != q for _, q in pool):
                pool.append(e)
        # after the first round the basic set never survives unchanged: some
        # remainder has strictly lower rank than a chain member it displaces
        deadline.check()
        chain = []
        for (c, d, _), p in _by_rank(pool):
            if not chain or (
                    c > depidx[chain[-1].main_var]
                    and all(p.degree_in(m.main_var) < m.degree
                            for m in chain)):
                mv = depname[c]
                chain.append(ChainMember(p, mv, p.leading_coeff_in(mv), d))
        new = []
        for _, p in pool:
            if not any(p is m.poly for m in chain):
                r = _remainder(p, chain, deadline)
                if not r.is_zero():
                    new.append(_pool_entry(r, depidx, depname))
    return chain


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


def _generic_ndg(chain: list[ChainMember], system: PolynomialSystem) -> tuple:
    """What a generic proof assumes: the chain initials and the constructor
    hints do not vanish."""
    return _canonical_ndg([m.initial for m in chain] + list(system.ndg_hints))


class _ProofRun:
    """Budget, cpu clock and trace lines of one built-in proof attempt."""

    def __init__(self, timeout_seconds: float | None, trace: bool):
        self.deadline = Deadline(timeout_seconds)
        self.trace = trace
        self.t0c = time.thread_time()
        self.lines: list[str] = []

    def note(self, line: str) -> None:
        """A line that only a traced run keeps."""
        if self.trace:
            self.lines.append(line)

    def goals(self, system: PolynomialSystem):
        """(index, conclusion) for each conclusion not identically zero."""
        for i, g in enumerate(system.conclusions, start=1):
            if g.is_zero():
                self.note(f"conclusion {i}: identically zero")
            else:
                yield i, g

    def outcome(self, status: Status, ndg: tuple = (),
                message: str = "") -> ProofOutcome:
        return ProofOutcome(
            status=status, ndg_conditions=ndg,
            trace="\n".join(self.lines) if self.lines else None,
            cpu_seconds=time.thread_time() - self.t0c,
            wall_seconds=self.deadline.elapsed(), message=message)

    def proved(self, ndg: tuple) -> ProofOutcome:
        if self.trace:
            self.lines += [f"nondegeneracy: {p} != 0" for p in ndg]
        return self.outcome(Status.PROVED, ndg=ndg)


def wu_prove(system: PolynomialSystem,
             timeout_seconds: float | None = None,
             trace: bool = False) -> ProofOutcome:
    """Decide every conclusion by successive pseudo-division down the chain.

    Proved means each conclusion's final remainder is exactly zero, i.e. the
    conjecture holds wherever the chain initials and the constructor hints
    do not vanish.
    """
    run = _ProofRun(timeout_seconds, trace)
    chain: list[ChainMember] | None = None

    try:
        for i, g in run.goals(system):
            if chain is None:
                chain = wu_triangulate(system, run.deadline)
                if trace:
                    run.lines += ["ascending chain:"] + [
                        f"  [{m.main_var}] {m.poly}" for m in chain]
            r = _remainder(g, chain, run.deadline)
            if not r.is_zero():
                run.lines.append(f"conclusion {i}: nonzero final remainder {r}")
                return run.outcome(Status.UNPROVED)
            run.note(f"conclusion {i}: remainder zero")
    except DeadlineExceeded:
        return run.outcome(Status.TIMEOUT)
    except TriangulateError as e:
        return run.outcome(Status.ERROR, message=str(e))
    return run.proved(_generic_ndg(chain or [], system))


# ---------------------------------------------------------------------------
# Groebner radical membership

def groebner_prove(system: PolynomialSystem,
                   timeout_seconds: float | None = None,
                   trace: bool = False) -> ProofOutcome:
    """Radical-membership prover: g vanishes on V(hypotheses) iff
    1 lies in <hypotheses, 1 - z*g>.  It also adjoins 1 - w_k*d_k for each
    Wu nondegeneracy polynomial d_k, one fresh variable per factor, so the
    two built-in provers answer the same generically-true question.  Like
    wu_prove, it triangulates only when some conclusion is not identically
    zero, and reports a contradiction that triangulation meets as an ERROR.

    Raises ValueError when a system variable is named z or w_k.
    """
    run = _ProofRun(timeout_seconds, trace)

    try:
        needed = any(not g.is_zero() for g in system.conclusions)
        ndg = _generic_ndg(
            wu_triangulate(system, run.deadline) if needed else [], system)
        fresh = ["z"] + [f"w{k}" for k in range(1, len(ndg) + 1)]
        clash = ({v.name for v in system.params}
                 | {v.name for v in system.dependents}).intersection(fresh)
        if clash:
            raise ValueError(f"system variables {sorted(clash)} clash with "
                             "the prover's fresh variables")
        # the product of the ndgs is nonzero iff every factor is, so one
        # inverter per factor asks the same question with far smaller terms
        inverters = [1 - Polynomial.variable(w) * d
                     for w, d in zip(fresh[1:], ndg)]

        # precedence: fresh variables first, then dependents newest-first,
        # then parameters
        prec = fresh + [v.name for v in reversed(system.dependents)]
        prec += [v.name for v in reversed(system.params)]
        order = TermOrder(TermOrder.DEGREVLEX, prec)

        for i, g in run.goals(system):
            # the negated goal first: hypotheses and inverters are consistent
            # on their own, so a unit can only come from pairs with the goal,
            # and equal-degree pairs are taken in generator order
            gens = ([1 - Polynomial.variable("z") * g]
                    + list(system.hypotheses) + inverters)
            basis = buchberger(gens, order, run.deadline)
            if not is_unit_basis(basis):
                run.lines.append(
                    f"conclusion {i}: not in the radical "
                    f"(basis of {len(basis)} elements, no unit)")
                return run.outcome(Status.UNPROVED)
            run.note(f"conclusion {i}: radical membership confirmed")
    except DeadlineExceeded:
        return run.outcome(Status.TIMEOUT)
    except TriangulateError as e:
        return run.outcome(Status.ERROR, message=str(e))
    return run.proved(ndg)


# built-in prover functions by id, read by the CLI, descriptors and harness
BUILTINS = {"wu": wu_prove, "gbm": groebner_prove}


# ---------------------------------------------------------------------------
# exact numeric sampling oracle

SAMPLE_BOUND = 10_000
RETRY_CAP = 64


class DegenerateExhaustedError(Exception):
    """Every retry drew a degenerate configuration."""


class Consistent(pr.Record):
    samples: int


class Counterexample(pr.Record):
    model: dict                 # point -> (Fraction, Fraction)
    env: dict                   # variable name -> Fraction
    conclusion_index: int
    value: Fraction


def solve_construction(problem: pr.Problem, rng: random.Random):
    """One exact model of the construction, point -> (X, Y, W) int triple
    for (X/W, Y/W), or None when the draw hits a degenerate configuration
    (vertical base line, parallel lines, flat triangle)."""
    # rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) in one frame: the rejection
    # loop randint reaches through randrange and _randbelow, so the models
    # stay those of randint (test_solvers pins this)
    getrandbits = rng.getrandbits
    width = 2 * SAMPLE_BOUND + 1
    k = width.bit_length()

    def draw():
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return r - SAMPLE_BOUND

    pts: dict = {}
    for step in problem.steps:
        xyw = step.solve(pts, draw)
        if xyw is None:
            return None
        pts[step.point] = xyw
    return pts


def numeric_check(system: PolynomialSystem, samples: int, seed: int,
                  avoid=()):
    """Evaluate every conclusion on exact random models of the hypotheses.

    avoid lists polynomials (e.g. a prover's ndg conditions) that must be
    nonzero at each accepted model.  Zero tolerance: any nonzero conclusion
    value is a Counterexample.  The unknowns are system.params and
    system.dependents; with no params the single model is drawn once, and a
    degenerate or avoided draw raises DegenerateExhaustedError at once.

    Models are drawn and solved in integer homogeneous coordinates
    (solve_construction).  Once per call, every polynomial p becomes term
    rows over the unknowns (Polynomial.term_rows, which raises
    MissingVariableError for any other variable), with K the largest total
    degree among avoid, the hypotheses and the conclusions.  The common
    denominator d of a model is the lcm of the W of each point that holds
    an unknown; one scale d // W per point fills the value list, and p is
    tested through the sum of its rows, the exact d**K * p(x), an int for
    int coefficients; only a reported counterexample becomes Fractions.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    avoid = tuple(avoid)
    top = max((p.total_degree for p in (
        *avoid, *system.hypotheses, *system.conclusions)), default=0)
    unknowns = (*system.params, *system.dependents)
    names = [v.name for v in unknowns]
    layout = [(v.point, "xy".index(v.axis)) for v in unknowns]
    avoid_rows, hypothesis_rows, conclusion_rows = (
        [p.term_rows(names, top) for p in polys]
        for polys in (avoid, system.hypotheses, system.conclusions))
    points = {p for p, _ in layout}
    rng = random.Random(seed)
    if system.params:
        effective, attempts = samples, RETRY_CAP
    else:
        effective, attempts = 1, 1

    def value(rows):
        """d**K * p(x) for the model in values and dpow."""
        total = 0
        for c, k, positions in rows:
            c *= dpow[k]
            for i in positions:
                c *= values[i]
            total += c
        return total

    for _ in range(effective):
        model = None
        for _attempt in range(attempts):
            candidate = solve_construction(system.problem, rng)
            if candidate is None:
                continue
            d = math.lcm(*(candidate[p][2] for p in points))
            scale = {p: d // candidate[p][2] for p in points}
            values = [candidate[p][axis] * scale[p] for p, axis in layout]
            dpow = [d ** k for k in range(top + 1)]
            if any(value(rows) == 0 for rows in avoid_rows):
                continue
            model = candidate
            break
        if model is None:
            raise DegenerateExhaustedError(
                f"no admissible model after {attempts} draws")
        for rows in hypothesis_rows:
            if value(rows) != 0:
                raise AssertionError(
                    "sampled model violates a hypothesis; constructor and "
                    "algebraization disagree")
        for idx, rows in enumerate(conclusion_rows):
            got = value(rows)
            if got != 0:
                return Counterexample(
                    model={p: pr.rational_point(xyw)
                           for p, xyw in model.items()},
                    env={n: Fraction(v, d) for n, v in zip(names, values)},
                    conclusion_index=idx,
                    value=Fraction(got, dpow[-1]))
    return Consistent(samples=effective)


# ---------------------------------------------------------------------------
# external prover adapter

class SpawnFailureError(Exception):
    """The external prover process could not be started."""


# every external prover process that is running, so that a stopped run can
# take them down (kill_external_provers)
_LIVE: set = set()
_LIVE_LOCK = threading.Lock()


def _kill_group(proc: subprocess.Popen) -> None:
    import signal
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def kill_external_provers() -> None:
    """SIGKILL the process group of every external prover still running."""
    with _LIVE_LOCK:
        for proc in _LIVE:
            _kill_group(proc)


def _capture(proc: subprocess.Popen, deadline: Deadline) -> bytes:
    """The first TRACE_LIMIT bytes of proc's stdout, read in chunks to EOF
    (the rest is drained unkept), once proc has exited.

    Raises subprocess.TimeoutExpired when that ends past deadline's limit.
    """
    import selectors
    import subprocess

    def left():
        if deadline.limit is None:
            return None
        rest = deadline.limit - deadline.elapsed()
        if rest <= 0:
            raise subprocess.TimeoutExpired(proc.args, deadline.limit)
        return rest

    kept = bytearray()
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            if not sel.select(left()):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if len(kept) < TRACE_LIMIT:
                kept += chunk[:TRACE_LIMIT - len(kept)]
    proc.wait(left())
    proc.stdout.close()
    return bytes(kept)


def external_prove(descriptor: ProverDescriptor, problem_file: str,
                   timeout_seconds: float | None = None) -> ProofOutcome:
    """Run an external prover on a problem file under the exit-code protocol.

    Exit 0 is proved, 1 unproved, anything else an error; overrunning the
    budget kills the process group and reports a timeout.  An exception that
    interrupts the call kills the group too, and so does
    kill_external_provers from another thread.  The first 1 MiB of stdout
    is kept as the trace; the rest is read as it comes and dropped, so a
    chatty prover costs no more memory than that.  Child CPU time is read
    from the process accounting of reaped children, so concurrent external
    runs may blur attribution (wall time is always per-run exact).  As for
    the built-ins, a budget must be positive and finite (ValueError, before
    any process starts), and None means no limit.
    """
    if descriptor.kind is not ProverKind.EXTERNAL:
        raise ValueError("descriptor does not describe an external prover")
    import resource
    import shlex
    import subprocess
    argv = [tok.replace("{input}", str(problem_file))
            for tok in shlex.split(descriptor.command_template)]
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    # before Popen, so that a bad budget starts no child
    deadline = Deadline(timeout_seconds)

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
    with _LIVE_LOCK:
        _LIVE.add(proc)
    try:
        out = _capture(proc, deadline)
    except BaseException as e:
        # timed out, or interrupted on the calling thread: the child goes
        # down with it, and is reaped at once
        _kill_group(proc)
        proc.stdout.close()
        proc.wait()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        return ProofOutcome(status=Status.TIMEOUT,
                            cpu_seconds=child_cpu(),
                            wall_seconds=deadline.elapsed())
    finally:
        with _LIVE_LOCK:
            _LIVE.discard(proc)
    wall = deadline.elapsed()
    trace = out.decode("utf-8", errors="replace")
    if proc.returncode == 0:
        status, message = Status.PROVED, ""
    elif proc.returncode == 1:
        status, message = Status.UNPROVED, ""
    else:
        status, message = Status.ERROR, f"exit code {proc.returncode}"
    return ProofOutcome(status=status, trace=trace,
                        cpu_seconds=child_cpu(), wall_seconds=wall,
                        message=message)
