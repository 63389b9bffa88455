"""Ranking metrics against exhaustive oracles, plus horizon reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpp.data import FeatureSequence, gen_synthetic, standard_synthetic_config
from ttpp.metrics import (
    HorizonReport,
    NoPositivesError,
    accuracy,
    average_precision,
    calibrated_ap,
    evaluate_horizons,
    horizon_labels,
    read_report_csv,
    write_report_csv,
)


def oracle_rank(scores, positives):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [bool(positives[i]) for i in order]


def oracle_ap(scores, positives, calibrated):
    """Recompute precision at every cut-off from scratch."""
    ranked = oracle_rank(scores, positives)
    n_pos = sum(ranked)
    n_neg = len(ranked) - n_pos
    w = n_neg / n_pos
    total = 0.0
    for k in range(1, len(ranked) + 1):
        if not ranked[k - 1]:
            continue
        tp = sum(ranked[:k])
        fp = k - tp
        if calibrated:
            prec = 1.0 if n_neg == 0 else tp / (tp + fp / w)
        else:
            prec = tp / k
        total += prec
    return total / n_pos


class TestCalibratedAP:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        positives = np.array([1, 1, 1, 0, 0])
        assert calibrated_ap(scores, positives) == 1.0

    def test_hand_case_balanced(self):
        # cut-offs: rank 1 hit (cPrec 1), rank 3 hit (cPrec 2/3) -> 5/6
        value = calibrated_ap([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert value == pytest.approx(5 / 6, abs=1e-15)

    def test_all_ties_resolved_by_original_index(self):
        assert calibrated_ap([0.5, 0.5], [1, 0]) == 1.0
        assert calibrated_ap([0.5, 0.5], [0, 1]) == pytest.approx(0.5)

    def test_no_positives_signal(self):
        with pytest.raises(NoPositivesError):
            calibrated_ap([0.1, 0.2], [0, 0])

    def test_no_negatives_gives_one(self):
        assert calibrated_ap([0.3, 0.2], [1, 1]) == 1.0

    def test_balanced_equals_plain_ap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 2 * int(rng.integers(2, 20))
            positives = np.array([1] * (n // 2) + [0] * (n // 2))
            rng.shuffle(positives)
            scores = rng.normal(size=n)
            assert calibrated_ap(scores, positives) == pytest.approx(
                average_precision(scores, positives), abs=1e-12
            )


class TestAveragePrecision:
    def test_single_positive_ranked_first(self):
        assert average_precision([0.9, 0.5, 0.4, 0.3, 0.2], [1, 0, 0, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        assert average_precision([0.9, 0.5, 0.1], [0, 0, 1]) == pytest.approx(1 / 3)


@pytest.mark.parametrize("metric_fn,calibrated", [(calibrated_ap, True), (average_precision, False)])
def test_matches_exhaustive_oracle_on_random_instances(metric_fn, calibrated):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 120:
        n = int(rng.integers(2, 65))
        positives = rng.random(n) < rng.uniform(0.1, 0.9)
        if not positives.any():
            continue
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        expected = oracle_ap(scores, positives, calibrated)
        assert metric_fn(scores, positives) == pytest.approx(expected, abs=1e-12)
        checked += 1


def test_rank_metrics_invariant_under_monotone_transforms():
    rng = np.random.default_rng(43)
    scores = rng.normal(size=40)
    positives = rng.random(40) < 0.3
    if not positives.any():
        positives[0] = True
    for fn in (calibrated_ap, average_precision):
        base = fn(scores, positives)
        assert fn(3.0 * scores + 7.0, positives) == pytest.approx(base, abs=1e-12)
        assert fn(np.exp(scores), positives) == pytest.approx(base, abs=1e-12)


def test_rank_metrics_bounded():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        positives = rng.random(n) < 0.4
        if not positives.any():
            positives[rng.integers(n)] = True
        scores = rng.normal(size=n)
        for fn in (calibrated_ap, average_precision):
            value = fn(scores, positives)
            assert 0.0 <= value <= 1.0


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_complementary(self):
        assert accuracy([0, 1, 0], [1, 0, 1]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    @pytest.mark.parametrize("pred, true, message", [
        ([1, 2], [1], r"length mismatch: \(2,\) vs \(1,\)"),
        ([], [], "accuracy of an empty prediction set is undefined"),
    ])
    def test_refusals_name_their_cause(self, pred, true, message):
        with pytest.raises(ValueError, match=message):
            accuracy(pred, true)


def label_sequence(labels, n_classes, d_m=4, video_id="seq"):
    labels = np.asarray(labels)
    rng = np.random.default_rng(0)
    return FeatureSequence(video_id, rng.normal(size=(len(labels), d_m)), labels, n_classes)


def onehot_oracle_scorer(horizon):
    def score(seq, t):
        eye = np.eye(seq.n_classes)
        rows = []
        for tau in range(1, horizon + 1):
            u = min(t + tau, len(seq) - 1)
            rows.append(eye[seq.labels[u]])
        return np.stack(rows)

    return score


class TestEvaluateHorizons:
    def test_single_horizon_report(self):
        seq = label_sequence([0, 1, 0, 1, 2, 1, 0, 2, 1, 0], 3)
        report = evaluate_horizons(onehot_oracle_scorer(1), [seq], horizon=1, seq_len=4, metric="map")
        assert report.horizon_labels == ["0.25s"]
        assert report.means.shape == (1,)
        assert report.average == report.means[0]

    def test_oracle_model_scores_one_everywhere(self):
        rng = np.random.default_rng(45)
        seqs = [
            label_sequence(rng.integers(0, 3, size=24), 3, video_id=f"v{i}")
            for i in range(3)
        ]
        for metric in ("cap", "map", "acc"):
            report = evaluate_horizons(onehot_oracle_scorer(3), seqs, horizon=3, seq_len=4, metric=metric)
            np.testing.assert_allclose(report.means, 1.0)
            assert report.average == 1.0

    def test_background_excluded_from_ap_means(self):
        # both columns score "class 1 ahead": class 1 ranks perfectly, while
        # background ranks its positives last, so a mean it entered would fall below 1
        seq = label_sequence([0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1], 2)
        oracle = onehot_oracle_scorer(2)

        def scorer(seq, t):
            return np.repeat(oracle(seq, t)[:, 1:], 2, axis=1)

        for metric in ("map", "cap"):
            report = evaluate_horizons(scorer, [seq], horizon=2, seq_len=3, metric=metric)
            assert report.means.tolist() == [1.0, 1.0]

    def test_anchor_skipping_matches_hand_count(self):
        # length 10, seq_len 6: anchors t = 5..8; tau=1 targets 6..9 (4 pairs),
        # tau=2 targets 7..9 (3 pairs)
        seq = label_sequence([0, 1] * 5, 2)
        report = evaluate_horizons(onehot_oracle_scorer(2), [seq], horizon=2, seq_len=6, metric="acc")
        assert report.n_scored == 7

    def test_empty_report_is_an_error(self):
        seq = label_sequence([0, 1, 0], 2)
        with pytest.raises(ValueError, match="empty report"):
            evaluate_horizons(onehot_oracle_scorer(1), [seq], horizon=1, seq_len=8, metric="acc")

    def test_sequence_of_another_class_count_is_named(self):
        # a 4-class scorer on a 4-class then a 6-class sequence must not
        # produce a report: n_classes comes from the first sequence
        four = label_sequence([0, 1, 2, 3] * 3, 4, video_id="four")
        six = label_sequence([0, 1, 2, 3] * 3, 6, video_id="six")

        def scorer(seq, t):
            return np.full((2, 4), 0.25)

        with pytest.raises(ValueError, match="'six' has 6 classes, but 'four' has 4"):
            evaluate_horizons(scorer, [four, six], horizon=2, seq_len=4, metric="acc")

    @pytest.mark.parametrize("sequences, metric, message", [
        ("one", "auc", r"metric must be one of \('cap', 'map', 'acc'\), got 'auc'"),
        ("none", "acc", "no sequences to evaluate"),
        ("one", "acc", r"scorer returned \(1, 3\), expected \(2, 3\)"),
    ])
    def test_refusals_name_their_cause(self, sequences, metric, message):
        seqs = {"one": [label_sequence([0, 1, 2] * 4, 3)], "none": []}[sequences]
        with pytest.raises(ValueError, match=message):
            evaluate_horizons(onehot_oracle_scorer(1), seqs, horizon=2, seq_len=4, metric=metric)

    @pytest.mark.parametrize("metric", ["acc", "cap"])
    def test_an_all_nan_scorer_is_refused_at_its_first_anchor(self, metric):
        cfg = standard_synthetic_config(seed=1, duration_law="fixed")
        seqs = gen_synthetic(cfg, 2, 30)

        def nan_scorer(seq, t):
            return np.full((4, seq.n_classes), np.nan)

        first = f"sequence {seqs[0].video_id!r} at anchor t = 7"
        with pytest.raises(ValueError, match=f"non-finite score for {first}$"):
            evaluate_horizons(nan_scorer, seqs, horizon=4, seq_len=8, metric=metric)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_one_non_finite_score_is_named_by_sequence_and_anchor(self, bad):
        seqs = [label_sequence([0, 1, 2] * 6, 3, video_id=v) for v in ("a", "b", "c")]

        def scorer(seq, t):
            table = onehot_oracle_scorer(2)(seq, t).astype(float)
            if (seq.video_id, t) == ("b", 9):
                table[1, 2] = bad
            return table

        with pytest.raises(ValueError, match="for sequence 'b' at anchor t = 9$"):
            evaluate_horizons(scorer, seqs, horizon=2, seq_len=4, metric="map")

    def test_random_scores_match_analytic_expectation(self):
        # E[AP] under a random ranking with P positives of N:
        # sum_k (1/N + (k-1)(P-1)/(N(N-1))) / k
        def expected_ap(n, p):
            ks = np.arange(1, n + 1)
            return float(np.sum((1.0 / n + (ks - 1) * (p - 1) / (n * (n - 1))) / ks))

        rng = np.random.default_rng(46)
        seeds = 20
        observed = []
        analytic = []
        for s in range(seeds):
            local = np.random.default_rng(1000 + s)
            labels = local.integers(0, 2, size=80)
            seq = label_sequence(labels, 2, video_id=f"r{s}")

            def random_scorer(sequence, t, local=local):
                raw = local.random((1, 2))
                return raw / raw.sum()

            report = evaluate_horizons(random_scorer, [seq], horizon=1, seq_len=4, metric="map")
            n = len(labels) - 4  # anchors 3..77 target 4..78... one per anchor
            targets = labels[4:]
            p = int(targets.sum())
            observed.append(report.average)
            analytic.append(expected_ap(len(targets), p))
        observed = np.array(observed)
        analytic = np.array(analytic)
        sem = observed.std(ddof=1) / np.sqrt(seeds)
        assert abs(observed.mean() - analytic.mean()) < 3 * sem


def tabulated_report(tables, sequences, horizon, seq_len, metric):
    """The report by brute force: every (anchor, tau) pair listed one at a time,
    then each horizon's pairs reduced by the module's own metric functions."""
    n_classes = sequences[0].n_classes
    means = np.full(horizon, np.nan)
    n_scored = 0
    for tau in range(1, horizon + 1):
        rows, truth = [], []
        for seq in sequences:
            for t in range(seq_len - 1, len(seq)):
                if t + tau < len(seq):
                    rows.append(tables[seq.video_id, t][tau - 1])
                    truth.append(seq.labels[t + tau])
        if not rows:
            continue
        rows, truth = np.array(rows), np.array(truth)
        n_scored += len(truth)
        if metric == "acc":
            means[tau - 1] = accuracy(rows.argmax(axis=1), truth)
            continue
        fn = calibrated_ap if metric == "cap" else average_precision
        actions = [fn(rows[:, c], truth == c) for c in range(1, n_classes) if (truth == c).any()]
        if actions:
            means[tau - 1] = float(np.mean(actions))
    return means, n_scored


@st.composite
def scored_sequences(draw):
    """1-4 sequences whose lengths straddle seq_len, seq_len + 1 and seq_len +
    horizon, with tied scores for every anchor."""
    horizon, seq_len = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    lengths = draw(st.lists(st.integers(max(0, seq_len - 1), seq_len + horizon + 2),
                            min_size=1, max_size=4))
    sequences, tables = [], {}
    for i, length in enumerate(lengths):
        labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=length, max_size=length))
        seq = label_sequence(labels, n_classes, video_id=f"v{i}")
        sequences.append(seq)
        for t in range(seq_len - 1, length - 1):
            cells = draw(st.lists(st.integers(0, 3), min_size=horizon * n_classes,
                                  max_size=horizon * n_classes))
            tables[seq.video_id, t] = np.reshape(cells, (horizon, n_classes)) / 4
    return sequences, tables, horizon, seq_len


class TestEvaluateHorizonsProperties:
    """`evaluate_horizons` against the brute-force tabulation, byte for byte."""

    @pytest.mark.parametrize("metric", ["acc", "cap", "map"])
    @settings(max_examples=60, deadline=None)
    @given(case=scored_sequences())
    def test_report_equals_the_tabulation(self, metric, case):
        sequences, tables, horizon, seq_len = case
        means, n_scored = tabulated_report(tables, sequences, horizon, seq_len, metric)

        def scorer(seq, t):
            return tables[seq.video_id, t]

        if np.isnan(means).all():
            with pytest.raises(ValueError, match="empty report"):
                evaluate_horizons(scorer, sequences, horizon, seq_len, metric)
            return
        report = evaluate_horizons(scorer, sequences, horizon, seq_len, metric)
        assert report.means.tobytes() == means.tobytes()
        assert np.float64(report.average).tobytes() == np.mean(means[~np.isnan(means)]).tobytes()
        assert report.n_scored == n_scored

    def test_a_bad_score_after_short_sequences_is_named(self):
        # seq_len 4, horizon 3: "none" (3 chunks) has no anchor, "short" (6)
        # has anchors 3 and 4 whose futures stop before the horizon, and the
        # bad score sits at anchor 5 of "late", the third sequence
        seqs = [label_sequence(labels, 3, video_id=v) for v, labels in
                (("none", [0, 1, 2]), ("short", [0, 1, 2] * 2), ("late", [2, 1, 0] * 4))]

        def scorer(seq, t):
            table = onehot_oracle_scorer(3)(seq, t).astype(float)
            if (seq.video_id, t) == ("late", 5):
                table[2, 0] = np.nan
            return table

        with pytest.raises(ValueError, match="for sequence 'late' at anchor t = 5$"):
            evaluate_horizons(scorer, seqs, horizon=3, seq_len=4, metric="cap")


class TestReportCSV:
    def make_report(self):
        return HorizonReport(
            metric="acc",
            horizon_labels=horizon_labels(3),
            means=np.array([0.75, 2 / 3, 0.5]),
            average=float(np.mean([0.75, 2 / 3, 0.5])),
            n_scored=42,
        )

    def test_round_trip_bytes(self, tmp_path):
        reports = {"ttm-ppm": self.make_report(), "lstm-lstm": self.make_report()}
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        labels, rows = read_report_csv(path)
        assert labels == horizon_labels(3)
        assert set(rows) == {"ttm-ppm", "lstm-lstm"}
        rewritten = tmp_path / "again.csv"
        rebuilt = {
            name: HorizonReport(
                metric="acc",
                horizon_labels=labels,
                means=np.array(values[:-1]),
                average=values[-1],
                n_scored=0,
            )
            for name, values in rows.items()
        }
        write_report_csv(rebuilt, rewritten)
        assert path.read_bytes() == rewritten.read_bytes()

    def test_header_labels(self):
        assert horizon_labels(8) == [
            "0.25s", "0.5s", "0.75s", "1s", "1.25s", "1.5s", "1.75s", "2s",
        ]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="report"):
            read_report_csv(path)

    @pytest.mark.parametrize("horizons, message", [
        ([], "no reports to write"),
        ([3, 2], "report 'm1' has mismatched horizon labels"),
    ])
    def test_write_refusals_name_their_cause(self, horizons, message, tmp_path):
        reports = {
            f"m{i}": HorizonReport("acc", horizon_labels(h), np.zeros(h), 0.0, 0)
            for i, h in enumerate(horizons)
        }
        path = tmp_path / "report.csv"
        with pytest.raises(ValueError, match=message):
            write_report_csv(reports, path)
        assert not path.exists()

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,2\n", "not a horizon report csv"),
        ("method,0.25s,avg\nttm-ppm,0.5\n", "malformed report row: 'ttm-ppm,0.5'"),
    ])
    def test_read_refusals_name_their_cause(self, text, message, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_report_csv(path)
