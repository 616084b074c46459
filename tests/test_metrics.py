import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorange.common import DomainError, EmptyInputError
from monorange.metrics import (
    QUADRANTS,
    ErrorRecord,
    median_absolute_error,
    quadrant_matrix,
    summarize,
    write_quadrant_csv,
    write_records_csv,
    write_summary_csv,
)


def rec(true_m, pred_m, frame="f0", label="car"):
    return ErrorRecord(frame, label, true_m, pred_m)


def quantile_oracle(values, q):
    """Independent linear-interpolation quantile over a python-sorted list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


def summarize_oracle(records):
    errors = [r.true_distance_m - r.predicted_distance_m for r in records]
    mape = 100.0 * math.fsum(
        abs(e) / r.true_distance_m for e, r in zip(errors, records)
    ) / len(records)
    return {
        "median": quantile_oracle(errors, 0.5),
        "q1": quantile_oracle(errors, 0.25),
        "q3": quantile_oracle(errors, 0.75),
        "min": min(errors),
        "max": max(errors),
        "mape": mape,
    }


def quadrant_oracle(records, threshold):
    """Independent tally: route each record, then average per direction."""
    cells = {q: {"over": [], "under": []} for q in QUADRANTS}
    for r in records:
        e = r.true_distance_m - r.predicted_distance_m
        near_t = r.true_distance_m <= threshold
        near_p = r.predicted_distance_m <= threshold
        q = "Q2" if near_t and near_p else "Q3" if near_t else "Q4" if near_p else "Q1"
        if e < 0:
            cells[q]["over"].append(-e)
        else:
            cells[q]["under"].append(e)
    return cells


class TestSummarize:
    def test_perfect_single_record(self):
        summary = summarize([rec(3.0, 3.0)])
        assert summary.median_m == 0.0
        assert summary.mape_pct == 0.0
        assert summary.count == 1

    def test_symmetric_errors_at_two_meters(self):
        records = [rec(2.0, 1.9), rec(2.0, 2.1)]
        summary = summarize(records)
        assert summary.median_m == pytest.approx(0.0, abs=1e-12)
        assert summary.mape_pct == pytest.approx(5.0, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            summarize([])

    def test_non_positive_truth_rejected(self):
        with pytest.raises(DomainError):
            summarize([rec(0.0, 1.0)])

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(21)
        records = [
            rec(float(rng.uniform(0.5, 10)), float(rng.uniform(0.1, 12)), frame=f"f{i}")
            for i in range(5000)
        ]
        summary = summarize(records)
        oracle = summarize_oracle(records)
        assert summary.median_m == oracle["median"]
        assert summary.q1_m == oracle["q1"]
        assert summary.q3_m == oracle["q3"]
        assert summary.min_m == oracle["min"]
        assert summary.max_m == oracle["max"]
        assert summary.mape_pct == oracle["mape"]
        assert summary.q1_m <= summary.median_m <= summary.q3_m

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=10),
                st.floats(min_value=0.1, max_value=12),
            ),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_permutation_invariance(self, values, seed):
        records = [rec(t, p, frame=f"f{i}") for i, (t, p) in enumerate(values)]
        shuffled = list(records)
        np.random.default_rng(seed).shuffle(shuffled)
        assert summarize(records) == summarize(
            sorted(shuffled, key=lambda r: r.frame_id)
        ) or summarize(records).count == summarize(shuffled).count
        a, b = summarize(records), summarize(shuffled)
        assert (a.median_m, a.q1_m, a.q3_m, a.min_m, a.max_m, a.mape_pct) == (
            b.median_m, b.q1_m, b.q3_m, b.min_m, b.max_m, b.mape_pct,
        )


class TestQuadrantRouting:
    def test_near_truth_predicted_far_routes_q3(self):
        matrix = quadrant_matrix([rec(3.5, 4.2)])
        assert matrix["Q3"].count_over == 1
        assert matrix["Q3"].ase_over_m == pytest.approx(0.7, abs=1e-12)
        assert sum(matrix[q].count for q in QUADRANTS) == 1

    def test_far_truth_and_prediction_route_q1_under(self):
        matrix = quadrant_matrix([rec(5.0, 4.5)])
        assert matrix["Q1"].count_under == 1
        assert matrix["Q1"].ase_under_m == pytest.approx(0.5, abs=1e-12)

    def test_far_truth_predicted_near_routes_q4(self):
        matrix = quadrant_matrix([rec(5.0, 3.5)])
        assert matrix["Q4"].count_under == 1
        assert matrix["Q4"].ase_under_m == pytest.approx(1.5, abs=1e-12)

    def test_threshold_comparisons_inclusive(self):
        matrix = quadrant_matrix([rec(4.0, 4.0)])
        assert matrix["Q2"].count == 1  # 4.0 counts as near on both axes

    def test_counts_sum_to_input_size(self):
        rng = np.random.default_rng(31)
        records = [
            rec(float(rng.uniform(0.5, 8)), float(rng.uniform(0.5, 8)), frame=f"f{i}")
            for i in range(2000)
        ]
        matrix = quadrant_matrix(records)
        assert sum(matrix[q].count for q in QUADRANTS) == len(records)

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(33)
        records = [
            rec(float(rng.uniform(0.5, 8)), float(rng.uniform(0.5, 8)), frame=f"f{i}")
            for i in range(3000)
        ]
        matrix = quadrant_matrix(records, 4.0)
        cells = quadrant_oracle(records, 4.0)
        for q in QUADRANTS:
            cell = matrix[q]
            over, under = cells[q]["over"], cells[q]["under"]
            assert cell.count_over == len(over)
            assert cell.count_under == len(under)
            if over:
                assert cell.ase_over_m == math.fsum(over) / len(over)
            else:
                assert cell.ase_over_m is None
            if under:
                assert cell.ase_under_m == math.fsum(under) / len(under)
            else:
                assert cell.ase_under_m is None

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=8),
                st.floats(min_value=-0.4, max_value=0.4),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_reflecting_predictions_swaps_over_and_under(self, pairs):
        threshold = 4.0
        records, mirrored = [], []
        for i, (true_m, err) in enumerate(pairs):
            if abs(err) < 1e-6:
                continue
            pred = true_m - err
            pred_mirror = true_m + err
            if pred <= 0 or pred_mirror <= 0:
                continue
            # keep routing identical on both sides of the reflection
            if (pred - threshold) * (pred_mirror - threshold) <= 0:
                continue
            records.append(rec(true_m, pred, frame=f"f{i}"))
            mirrored.append(rec(true_m, pred_mirror, frame=f"f{i}"))
        if not records:
            return
        a = quadrant_matrix(records, threshold)
        b = quadrant_matrix(mirrored, threshold)
        for q in QUADRANTS:
            assert a[q].count_over == b[q].count_under
            assert a[q].count_under == b[q].count_over
            if a[q].ase_over_m is None:
                assert b[q].ase_under_m is None
            else:
                assert a[q].ase_over_m == pytest.approx(
                    b[q].ase_under_m, rel=1e-12
                )


class TestCsvOutputs:
    def test_records_csv_layout(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([rec(3.0, 2.5, frame="f1", label="bicycle")], path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["frame_id", "class", "true_m", "pred_m", "signed_error_cm"]
        assert rows[1][0] == "f1"
        assert float(rows[1][4]) == pytest.approx(50.0)

    def test_summary_csv_per_class(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(
            {"car": [rec(3.0, 2.5)], "vip": [rec(2.0, 2.2, label="vip")]}, path
        )
        rows = list(csv.reader(path.open()))
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["car", "vip"]

    def test_quadrant_csv_has_eight_rows(self, tmp_path):
        path = tmp_path / "quadrant.csv"
        write_quadrant_csv(quadrant_matrix([rec(3.0, 2.5), rec(5.0, 6.0)]), path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["quadrant", "bucket", "ase_cm", "count"]
        assert len(rows) == 1 + 8

    def test_median_absolute_error(self):
        records = [rec(3.0, 2.8), rec(3.0, 3.3)]
        assert median_absolute_error(records) == pytest.approx(0.25, rel=1e-9)
