"""Quality profiles and rankings for provers, built from run records.

A prover is scored along four dimensions:

* scope        -- fraction of eligible problems it proved
* efficiency   -- speed classes of its proofs plus median proof time
* readability  -- declared 1..5 level of its output (higher reads better)
* reliability  -- trust class of the implementation, sharpened by how often
                  an independent numeric oracle agreed with its verdicts

Reports are plain functions of the profiles and weights they are built
from: rendering the same inputs twice gives byte-identical text.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .corpus import CorpusManifest, corpus_hash
from .problems import Record
from .provers import Counterexample, ProverDescriptor, ReliabilityClass, Status

GOOD_THRESHOLD_SECONDS = 1.5
FAIR_THRESHOLD_SECONDS = 3.0

DIMENSIONS = ("scope", "efficiency", "readability", "reliability")


class RankingError(ValueError):
    pass


class MissingRecordsError(RankingError):
    def __init__(self, prover_id: str):
        super().__init__(f"no records for prover {prover_id!r}")
        self.prover_id = prover_id


class NegativeWeightError(RankingError):
    def __init__(self, dimension: str, weight):
        super().__init__(f"negative weight {weight} for {dimension!r}")
        self.dimension = dimension


class ZeroSizeError(RankingError):
    pass


class EfficiencyClass(enum.Enum):
    GOOD = "good"
    FAIR = "fair"
    UNSUITABLE = "unsuitable"
    UNDECIDED = "undecided"


def classify_time(seconds: float, status: Status) -> EfficiencyClass:
    """Speed class of one result; both boundaries belong to the faster class."""
    if status is not Status.PROVED:
        return EfficiencyClass.UNDECIDED
    if seconds <= GOOD_THRESHOLD_SECONDS:
        return EfficiencyClass.GOOD
    if seconds <= FAIR_THRESHOLD_SECONDS:
        return EfficiencyClass.FAIR
    return EfficiencyClass.UNSUITABLE


def de_bruijn_factor(informal_size: int, formal_size: int) -> Fraction:
    """Exact informal/formal size ratio.

    A value below 1 means the formal text is the larger one; swapping the
    arguments gives the reciprocal.
    """
    if informal_size <= 0 or formal_size <= 0:
        raise ZeroSizeError("both sizes must be positive")
    return Fraction(informal_size, formal_size)


def de_bruijn_factor_text(informal, formal) -> Fraction:
    """Factor from the byte sizes of the texts themselves."""
    enc_i = informal.encode() if isinstance(informal, str) else bytes(informal)
    enc_f = formal.encode() if isinstance(formal, str) else bytes(formal)
    return de_bruijn_factor(len(enc_i), len(enc_f))


def _modal_status(statuses) -> Status:
    # most frequent status; ties resolved by status name for determinism.
    # Counted by the plain _value_ attribute: both hashing a member and its
    # .value property run Python-level code for every record
    counts = {}
    for s in statuses:
        v = s._value_
        counts[v] = counts.get(v, 0) + 1
    return Status(min(counts, key=lambda v: (-counts[v], v)))


class ProblemSummary(Record):
    problem_id: str
    status: Status
    median_seconds: float
    efficiency: EfficiencyClass


class QualityProfile(Record):
    prover_id: str
    scope_score: Fraction
    proved_count: int
    considered_count: int
    efficiency_counts: dict
    median_proved_seconds: float | None
    readability_level: int
    reliability: ReliabilityClass
    oracle_agreement: Fraction
    de_bruijn: Fraction | None
    problems: tuple


def summarize_problem(problem_id: str, records, time_source: str = "wall"
                      ) -> ProblemSummary:
    """Collapse the repetitions of one (problem, prover) cell.

    The cell's status is the modal status over repetitions and its time is
    the median over the repetitions carrying that status.
    """
    if time_source not in ("wall", "cpu"):
        raise ValueError("time_source must be 'wall' or 'cpu'")
    attr = f"{time_source}_seconds"
    import statistics
    status = _modal_status(r.status for r in records)
    seconds = statistics.median(getattr(r, attr) for r in records
                                if r.status is status)
    # positional, the cheaper call: rank makes one per (problem, prover)
    return ProblemSummary(problem_id, status, seconds,
                          classify_time(seconds, status))


def build_quality_profile(records, descriptor: ProverDescriptor,
                          corpus: CorpusManifest | None = None,
                          oracle: dict | None = None, *,
                          time_source: str = "wall",
                          de_bruijn: Fraction | None = None) -> QualityProfile:
    """Profile one prover from its run records.

    Scope counts only problems where a proof is creditable: corpus entries
    expected 'proved' or 'unknown', each one whether or not it has a
    record (one without is Undecided).  Without a corpus every recorded
    problem counts.  `oracle` maps problem ids to numeric-check results;
    agreement is the fraction of Proved verdicts the oracle did not
    contradict with a counterexample, and is 1 when there is nothing to
    contradict.
    """
    mine = [r for r in records if r.prover_id == descriptor.id]
    if not mine:
        raise MissingRecordsError(descriptor.id)

    by_problem = {}
    for r in mine:
        by_problem.setdefault(r.problem_id, []).append(r)
    summaries = tuple(summarize_problem(pid, rs, time_source)
                      for pid, rs in sorted(by_problem.items()))

    if corpus is not None:
        eligible = {e.id for e in corpus.entries
                    if e.expected_status in ("proved", "unknown")}
    else:
        eligible = {s.problem_id for s in summaries}
    recorded = [s for s in summaries if s.problem_id in eligible]
    proved = [s for s in recorded if s.status is Status.PROVED]

    counts = {cls: 0 for cls in EfficiencyClass}
    for s in recorded:
        counts[s.efficiency] += 1
    counts[EfficiencyClass.UNDECIDED] += len(eligible) - len(recorded)

    if proved:
        contradicted = sum(
            1 for s in proved
            if isinstance((oracle or {}).get(s.problem_id), Counterexample))
        agreement = Fraction(len(proved) - contradicted, len(proved))
    else:
        agreement = Fraction(1)

    import statistics
    median_proved = (statistics.median(s.median_seconds for s in proved)
                     if proved else None)
    scope = (Fraction(len(proved), len(eligible))
             if eligible else Fraction(0))
    return QualityProfile(
        prover_id=descriptor.id, scope_score=scope, proved_count=len(proved),
        considered_count=len(eligible), efficiency_counts=counts,
        median_proved_seconds=median_proved,
        readability_level=descriptor.readability_level,
        reliability=descriptor.reliability, oracle_agreement=agreement,
        de_bruijn=de_bruijn, problems=summaries)


_RELIABILITY_RANK = {
    ReliabilityClass.FORMALLY_VERIFIED: 0,
    ReliabilityClass.EXTENSIVELY_TESTED: 1,
    ReliabilityClass.UNVERIFIED: 2,
}

_FAR_FROM_ONE = Fraction(10) ** 9


def _measure(p: QualityProfile, dimension: str) -> tuple:
    """(sort key, tsv score) of profile p along one dimension; the smaller
    key is better, and callers append prover_id to break ties."""
    if dimension == "scope":
        return (-p.scope_score,), str(p.scope_score)
    if dimension == "efficiency":
        good = p.efficiency_counts[EfficiencyClass.GOOD]
        med = p.median_proved_seconds
        if med is None:
            return (-good, float("inf")), f"good={good},median=n/a"
        return (-good, med), f"good={good},median={med:.6f}"
    if dimension == "readability":
        # a known factor close to 1 reads best; unknown sorts last
        db = p.de_bruijn
        return ((-p.readability_level,
                 _FAR_FROM_ONE if db is None else abs(db - 1)),
                f"level={p.readability_level}"
                + ("" if db is None else f",de_bruijn={db}"))
    if dimension == "reliability":
        return ((_RELIABILITY_RANK[p.reliability], -p.oracle_agreement),
                f"{p.reliability.value},agreement={p.oracle_agreement}")
    raise ValueError(f"unknown dimension {dimension!r}")


def rank_dimension(profiles, dimension: str) -> list:
    """Prover ids ordered best-first along one dimension."""
    ordered = sorted(profiles,
                     key=lambda p: _measure(p, dimension)[0]
                     + (p.prover_id,))
    return [p.prover_id for p in ordered]


def _normalized_rank(position: int, n: int) -> Fraction:
    # best = 0, worst = 1; a lone entrant scores 0
    if n <= 1:
        return Fraction(0)
    return Fraction(position - 1, n - 1)


def _check_weights(weights: dict) -> None:
    for dim, w in weights.items():
        if dim not in DIMENSIONS:
            raise RankingError(f"unknown dimension {dim!r}")
        if w < 0:
            raise NegativeWeightError(dim, w)


def aggregate_scores(profiles, weights: dict) -> dict:
    """Weighted sum of normalized per-dimension ranks, smaller is better.

    Scaling every weight by one positive constant scales every score by the
    same constant, so the induced order never changes.
    """
    _check_weights(weights)
    n = len(profiles)
    scores = {p.prover_id: Fraction(0) for p in profiles}
    for dim, w in weights.items():
        if not w:
            continue
        order = rank_dimension(profiles, dim)
        for pos, pid in enumerate(order, start=1):
            scores[pid] += Fraction(w) * _normalized_rank(pos, n)
    return scores


class Provenance(Record):
    record_count: int
    time_source: str
    hosts: tuple
    corpus_digest: str | None


def build_provenance(records, corpus: CorpusManifest | None = None,
                     time_source: str = "wall") -> Provenance:
    return Provenance(
        record_count=len(records), time_source=time_source,
        hosts=tuple(sorted({r.host_fingerprint for r in records})),
        corpus_digest=corpus_hash(corpus) if corpus is not None else None)


class RankingReport(Record):
    profiles: tuple
    dimension_order: dict
    weights: dict | None
    aggregate: dict | None
    provenance: Provenance | None

    def aggregate_order(self) -> list:
        return [pid for pid, _ in sorted(self.aggregate.items(),
                                         key=lambda kv: (kv[1], kv[0]))]

    def to_text(self) -> str:
        out = ["ranking report"]
        if self.provenance is not None:
            p = self.provenance
            out.append(f"records: {p.record_count} "
                       f"(times: {p.time_source})")
            out.append("hosts: " + "; ".join(p.hosts))
            if p.corpus_digest is not None:
                out.append(f"corpus: {p.corpus_digest}")
        out.append("")

        header = ["prover", "scope", "good", "fair", "unsuitable",
                  "undecided", "median_s", "readability", "reliability",
                  "agreement"]
        rows = [header]
        for prof in self.profiles:
            c = prof.efficiency_counts
            med = prof.median_proved_seconds
            rows.append([
                prof.prover_id,
                f"{prof.scope_score} ({prof.proved_count}/"
                f"{prof.considered_count})",
                str(c[EfficiencyClass.GOOD]), str(c[EfficiencyClass.FAIR]),
                str(c[EfficiencyClass.UNSUITABLE]),
                str(c[EfficiencyClass.UNDECIDED]),
                "n/a" if med is None else f"{med:.6f}",
                str(prof.readability_level), prof.reliability.value,
                str(prof.oracle_agreement),
            ])
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            out.append("  ".join(cell.ljust(w)
                                 for cell, w in zip(r, widths)).rstrip())
        for prof in self.profiles:
            if prof.de_bruijn is not None:
                out.append(f"de Bruijn factor [{prof.prover_id}]: "
                           f"{prof.de_bruijn} "
                           f"(reciprocal {1 / prof.de_bruijn})")
        out.append("")
        label = max(len(f"by {d}:") for d in DIMENSIONS) + 1
        for dim in DIMENSIONS:
            out.append((f"by {dim}:").ljust(label)
                       + " > ".join(self.dimension_order[dim]))
        if self.aggregate is not None:
            out.append("")
            parts = ", ".join(f"{d}={w}"
                              for d, w in sorted(self.weights.items()))
            out.append(f"aggregate (weights {parts}):")
            for pos, pid in enumerate(self.aggregate_order(), start=1):
                out.append(f"  {pos}. {pid}  {self.aggregate[pid]}")
        return "\n".join(out) + "\n"

    def to_tsv(self) -> str:
        """One line per (dimension, rank, prover, score)."""
        by_id = {p.prover_id: p for p in self.profiles}

        rows = ["dimension\trank\tprover_id\tscore"]
        for dim in DIMENSIONS:
            for pos, pid in enumerate(self.dimension_order[dim], start=1):
                rows.append(f"{dim}\t{pos}\t{pid}\t"
                            f"{_measure(by_id[pid], dim)[1]}")
        if self.aggregate is not None:
            for pos, pid in enumerate(self.aggregate_order(), start=1):
                rows.append(f"aggregate\t{pos}\t{pid}\t{self.aggregate[pid]}")
        return "\n".join(rows) + "\n"


def rank_report(profiles, weights: dict | None = None,
                provenance: Provenance | None = None) -> RankingReport:
    """Rankings over prepared profiles.

    The four per-dimension orders are always emitted; the aggregate appears
    only when weights are supplied and not all zero.
    """
    if not profiles:
        raise RankingError("no profiles to rank")
    profiles = tuple(sorted(profiles, key=lambda p: p.prover_id))
    order = {dim: rank_dimension(profiles, dim) for dim in DIMENSIONS}
    aggregate = None
    if weights is not None and any(weights.values()):
        aggregate = aggregate_scores(profiles, weights)
    elif weights:
        _check_weights(weights)  # still surface bad input
    return RankingReport(profiles=profiles, dimension_order=order,
                         weights=dict(weights) if weights else None,
                         aggregate=aggregate, provenance=provenance)


def report_from_records(records, descriptors,
                        corpus: CorpusManifest | None = None, *,
                        time_source: str = "wall",
                        weights: dict | None = None,
                        oracle: dict | None = None,
                        de_bruijn: dict | None = None) -> RankingReport:
    """Convenience path from a loaded record store straight to a report."""
    descriptors = sorted(descriptors, key=lambda d: d.id)
    by_prover = {}
    for r in records:
        by_prover.setdefault(r.prover_id, []).append(r)
    profiles = [
        build_quality_profile(
            by_prover.get(d.id, ()), d, corpus, oracle,
            time_source=time_source, de_bruijn=(de_bruijn or {}).get(d.id))
        for d in descriptors]
    return rank_report(profiles, weights,
                       build_provenance(records, corpus, time_source))
