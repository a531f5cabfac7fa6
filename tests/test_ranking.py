"""Quality measures and rankings."""

from fractions import Fraction

import pytest

from gatpbench.corpus import bundled_manifest_path, load_corpus
from gatpbench.harness import RunRecord
from gatpbench.provers import (Counterexample, ProverDescriptor, ProverKind,
                               ReliabilityClass, Status, groebner_descriptor,
                               wu_descriptor)
from gatpbench.ranking import (EfficiencyClass, MissingRecordsError,
                               NegativeWeightError, RankingError,
                               ZeroSizeError, aggregate_scores,
                               build_quality_profile, classify_time,
                               de_bruijn_factor, de_bruijn_factor_text,
                               rank_report, report_from_records,
                               summarize_problem)


def rec(problem="P1", prover="wu", rep=1, status=Status.PROVED,
        wall=0.01, cpu=0.01, ndg=0):
    return RunRecord(problem_id=problem, prover_id=prover, repetition=rep,
                     status=status, cpu_seconds=cpu, wall_seconds=wall,
                     ndg_count=ndg, started_at="2026-08-18T00:00:00+00:00",
                     host_fingerprint="host")


class TestClassifyTime:
    @pytest.mark.parametrize("seconds,expected", [
        (0.016, EfficiencyClass.GOOD),
        (1.5, EfficiencyClass.GOOD),
        (1.500001, EfficiencyClass.FAIR),
        (2.9, EfficiencyClass.FAIR),
        (3.0, EfficiencyClass.FAIR),
        (3.2, EfficiencyClass.UNSUITABLE),
        (1e6, EfficiencyClass.UNSUITABLE),
    ])
    def test_proved_thresholds(self, seconds, expected):
        assert classify_time(seconds, Status.PROVED) is expected

    @pytest.mark.parametrize("status", [Status.TIMEOUT, Status.UNPROVED,
                                        Status.ERROR])
    def test_non_proved_is_undecided(self, status):
        assert classify_time(0.001, status) is EfficiencyClass.UNDECIDED

    def test_monotone_in_time(self):
        order = [EfficiencyClass.GOOD, EfficiencyClass.FAIR,
                 EfficiencyClass.UNSUITABLE]
        last = 0
        for t in (0.0, 1.5, 1.6, 3.0, 3.0001, 50.0):
            cls = classify_time(t, Status.PROVED)
            assert order.index(cls) >= last
            last = order.index(cls)


class TestDeBruijn:
    def test_paper_direction(self):
        assert de_bruijn_factor(1000, 4000) == Fraction(1, 4)
        assert de_bruijn_factor(4000, 1000) == Fraction(4)
        assert de_bruijn_factor(123, 123) == 1

    def test_reciprocal_symmetry(self):
        a, b = 1234, 987
        assert de_bruijn_factor(a, b) * de_bruijn_factor(b, a) == 1

    def test_zero_size_rejected(self):
        with pytest.raises(ZeroSizeError):
            de_bruijn_factor(0, 10)
        with pytest.raises(ZeroSizeError):
            de_bruijn_factor(10, 0)

    def test_text_variant(self):
        assert de_bruijn_factor_text("ab", "abcd") == Fraction(1, 2)


class TestSummaries:
    def test_modal_status_and_median(self):
        rs = [rec(rep=1, wall=1.0), rec(rep=2, wall=3.0),
              rec(rep=3, wall=2.0),
              rec(rep=4, status=Status.TIMEOUT, wall=60.0)]
        s = summarize_problem("P1", rs)
        assert s.status is Status.PROVED
        assert s.median_seconds == 2.0
        assert s.efficiency is EfficiencyClass.FAIR

    def test_median_over_modal_reps_only(self):
        rs = [rec(rep=1, wall=0.1), rec(rep=2, wall=0.2),
              rec(rep=3, status=Status.TIMEOUT, wall=60.0)]
        assert summarize_problem("P1", rs).median_seconds == \
            pytest.approx(0.15)

    def test_modal_tie_breaks_on_status_name_in_any_order(self):
        rs = [rec(rep=1, status=Status.TIMEOUT, wall=60.0),
              rec(rep=2, wall=1.0),
              rec(rep=3, status=Status.TIMEOUT, wall=60.0),
              rec(rep=4, wall=2.0)]
        for order in (rs, rs[::-1]):
            s = summarize_problem("P1", order)
            assert (s.status, s.median_seconds) == (Status.PROVED, 1.5)

    def test_cpu_time_source(self):
        rs = [rec(wall=9.0, cpu=0.5)]
        assert summarize_problem("P1", rs, "cpu").median_seconds == 0.5


class TestProfiles:
    def records(self):
        out = []
        for pid, status in [("P1", Status.PROVED), ("P2", Status.PROVED),
                            ("P3", Status.TIMEOUT)]:
            for rep in (1, 2):
                out.append(rec(problem=pid, rep=rep, status=status,
                               wall=0.02))
        return out

    def test_scope_and_histogram(self):
        prof = build_quality_profile(self.records(), wu_descriptor())
        assert prof.scope_score == Fraction(2, 3)
        assert prof.proved_count == 2 and prof.considered_count == 3
        assert prof.efficiency_counts[EfficiencyClass.GOOD] == 2
        assert prof.efficiency_counts[EfficiencyClass.UNDECIDED] == 1
        assert prof.median_proved_seconds == 0.02

    def test_missing_records_raise(self):
        with pytest.raises(MissingRecordsError):
            build_quality_profile(self.records(), groebner_descriptor())

    def test_report_raises_for_a_descriptor_without_records(self):
        with pytest.raises(MissingRecordsError) as info:
            report_from_records(self.records(),
                                [wu_descriptor(), groebner_descriptor()])
        assert info.value.prover_id == "gbm"

    def test_oracle_contradiction_lowers_agreement(self):
        cx = Counterexample(model={}, env={}, conclusion_index=0,
                            value=Fraction(1))
        prof = build_quality_profile(self.records(), wu_descriptor(),
                                     oracle={"P1": cx})
        assert prof.oracle_agreement == Fraction(1, 2)

    def test_vacuous_agreement_is_one(self):
        rs = [rec(status=Status.TIMEOUT)]
        prof = build_quality_profile(rs, wu_descriptor())
        assert prof.oracle_agreement == 1

    def test_scope_invariant_under_reordering_and_reps(self):
        base = build_quality_profile(self.records(), wu_descriptor())
        shuffled = build_quality_profile(list(reversed(self.records())),
                                         wu_descriptor())
        single = build_quality_profile(
            [r for r in self.records() if r.repetition == 1],
            wu_descriptor())
        assert base.scope_score == shuffled.scope_score == single.scope_score

    def test_scope_with_a_corpus_counts_unrecorded_entries(self):
        corpus = load_corpus(bundled_manifest_path())
        eligible = [e.id for e in corpus.entries
                    if e.expected_status in ("proved", "unknown")]
        assert len(eligible) == 13
        records = [rec(problem=pid, prover="wu",
                       status=Status.TIMEOUT if i == 0 else Status.PROVED)
                   for i, pid in enumerate(eligible)]
        records.append(rec(problem=eligible[1], prover="gbm"))
        report = report_from_records(
            records, [wu_descriptor(), groebner_descriptor()], corpus)
        gbm, wu = report.profiles   # sorted by prover id
        assert (wu.scope_score, wu.considered_count) == (Fraction(12, 13), 13)
        assert (gbm.scope_score, gbm.proved_count,
                gbm.considered_count) == (Fraction(1, 13), 1, 13)
        # the twelve entries gbm has no record for are undecided
        assert gbm.efficiency_counts[EfficiencyClass.UNDECIDED] == 12
        assert gbm.efficiency_counts[EfficiencyClass.GOOD] == 1
        assert report.dimension_order["scope"] == ["wu", "gbm"]
        assert "1/13 (1/13)" in report.to_text()


def profile(prover="wu", scope=(2, 2), wall=0.01, level=1,
            reliability=ReliabilityClass.EXTENSIVELY_TESTED, db=None):
    desc = ProverDescriptor(id=prover, kind=ProverKind.EXTERNAL,
                            readability_level=level, reliability=reliability,
                            command_template="true {input}")
    proved, total = scope
    records = []
    for i in range(total):
        status = Status.PROVED if i < proved else Status.UNPROVED
        records.append(rec(problem=f"P{i}", prover=prover, status=status,
                           wall=wall))
    return build_quality_profile(records, desc, de_bruijn=db)


class TestRankReport:
    def test_scope_ordering(self):
        a = profile("a", scope=(6, 6))
        b = profile("b", scope=(5, 6))
        report = rank_report([b, a])
        assert report.dimension_order["scope"] == ["a", "b"]

    def test_total_tie_falls_back_to_prover_id(self):
        report = rank_report([profile("zeta"), profile("alpha")])
        for dim in report.dimension_order.values():
            assert dim == ["alpha", "zeta"]

    def test_readability_tiebreak_prefers_factor_near_one(self):
        a = profile("a", db=Fraction(1, 4))
        b = profile("b", db=Fraction(9, 10))
        report = rank_report([a, b])
        assert report.dimension_order["readability"] == ["b", "a"]

    def test_reliability_ordering(self):
        a = profile("a", reliability=ReliabilityClass.UNVERIFIED)
        b = profile("b", reliability=ReliabilityClass.FORMALLY_VERIFIED)
        report = rank_report([a, b])
        assert report.dimension_order["reliability"] == ["b", "a"]

    def test_byte_identical_reports(self):
        profs = [profile("a", scope=(3, 4)), profile("b", scope=(4, 4))]
        w = {"scope": Fraction(1), "efficiency": Fraction(2)}
        t1 = rank_report(profs, w).to_text()
        t2 = rank_report(profs, w).to_text()
        assert t1 == t2
        assert rank_report(profs, w).to_tsv() == rank_report(profs,
                                                             w).to_tsv()

    def test_aggregate_scaling_invariance(self):
        profs = [profile("a", scope=(3, 4), wall=2.0),
                 profile("b", scope=(4, 4), wall=0.1),
                 profile("c", scope=(2, 4), wall=1.0)]
        w = {"scope": 3, "efficiency": 1, "readability": 1}
        r1 = rank_report(profs, w)
        r2 = rank_report(profs, {k: v * 17 for k, v in w.items()})
        assert r1.aggregate_order() == r2.aggregate_order()

    def test_aggregate_omitted_without_weights(self):
        profs = [profile("a"), profile("b")]
        assert rank_report(profs).aggregate is None
        assert rank_report(profs, {"scope": 0}).aggregate is None

    def test_negative_weight_rejected(self):
        profs = [profile("a"), profile("b")]
        with pytest.raises(NegativeWeightError):
            rank_report(profs, {"scope": -1})
        with pytest.raises(NegativeWeightError):
            aggregate_scores(profs, {"scope": -Fraction(1, 2)})

    def test_unknown_dimension_rejected(self):
        with pytest.raises(RankingError):
            aggregate_scores([profile("a")], {"speed": 1})

    def test_empty_profiles_rejected(self):
        with pytest.raises(RankingError):
            rank_report([])

    def test_edge_profiles_and_weights(self):
        # a prover that proves nothing has no median and ranks last on
        # efficiency, whatever else it does better
        idle = profile("idle", scope=(0, 2), level=3)
        a = profile("a", db=Fraction(1, 4))
        report = rank_report([idle, a])
        assert report.dimension_order["efficiency"] == ["a", "idle"]
        assert "efficiency\t2\tidle\tgood=0,median=n/a" \
            in report.to_tsv().splitlines()
        assert "de Bruijn factor [a]: 1/4 (reciprocal 4)" \
            in report.to_text().splitlines()
        assert rank_report([a], {"scope": 1}).aggregate == {"a": 0}
        # a zero weight next to a positive one changes nothing
        alone = rank_report([idle, a], {"efficiency": 1}).aggregate
        assert rank_report([idle, a], {"readability": 0,
                                       "efficiency": 1}).aggregate == alone
        assert alone == {"a": 0, "idle": 1}

    def test_tsv_one_line_per_dimension_rank(self):
        profs = [profile("a"), profile("b")]
        lines = rank_report(profs, {"scope": 1}).to_tsv().splitlines()
        assert lines[0] == "dimension\trank\tprover_id\tscore"
        # 4 dimensions x 2 provers + aggregate x 2
        assert len(lines) == 1 + 4 * 2 + 2
