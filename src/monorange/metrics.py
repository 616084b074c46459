"""Signed-error metrics and near/far quadrant summaries.

Sign convention: ``signed error = true - predicted``. Positive errors mean the
object was judged nearer than it really is (an underestimate), negative errors
an overestimate. Over-estimation averages (``ase_over_m``) are reported as
magnitudes; the bucket column carries the direction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .common import DomainError, EmptyInputError, linear_quantile, quartiles


@dataclass(frozen=True)
class ErrorRecord:
    """One joined (truth, prediction) observation."""

    frame_id: str
    class_label: str
    true_distance_m: float
    predicted_distance_m: float

    @property
    def signed_error_m(self) -> float:
        return self.true_distance_m - self.predicted_distance_m


@dataclass(frozen=True)
class MetricsSummary:
    """Order statistics of the signed error plus the mean absolute percentage error."""

    median_m: float
    q1_m: float
    q3_m: float
    min_m: float
    max_m: float
    mape_pct: float
    count: int


def summarize(records: Sequence[ErrorRecord]) -> MetricsSummary:
    """Distribution summary of signed errors; MAPE is relative to true distance."""
    if not records:
        raise EmptyInputError("cannot summarize zero records")
    for rec in records:
        if not rec.true_distance_m > 0:
            raise DomainError(
                f"true distance must be positive, got {rec.true_distance_m} "
                f"(frame {rec.frame_id})"
            )
    errors = [rec.signed_error_m for rec in records]
    q1, q2, q3 = quartiles(errors)
    mape = 100.0 * math.fsum(
        abs(rec.signed_error_m) / rec.true_distance_m for rec in records
    ) / len(records)
    return MetricsSummary(
        median_m=q2,
        q1_m=q1,
        q3_m=q3,
        min_m=min(errors),
        max_m=max(errors),
        mape_pct=mape,
        count=len(records),
    )


def median_absolute_error(records: Sequence[ErrorRecord]) -> float:
    """Median of |signed error|; reported alongside the signed median."""
    return linear_quantile(sorted(abs(r.signed_error_m) for r in records), 0.5)


@dataclass(frozen=True)
class QuadrantCell:
    """Per-quadrant error averages split by direction.

    ``ase_over_m`` averages the magnitudes of negative signed errors
    (overestimates), ``ase_under_m`` the non-negative ones (underestimates;
    exact zeros count as underestimates so every record lands in a bucket).
    Empty buckets report ``None``.
    """

    ase_over_m: float | None
    ase_under_m: float | None
    count_over: int
    count_under: int

    @property
    def count(self) -> int:
        return self.count_over + self.count_under


QUADRANTS = ("Q1", "Q2", "Q3", "Q4")


def _route(true_m: float, pred_m: float, threshold: float) -> str:
    true_near = true_m <= threshold
    pred_near = pred_m <= threshold
    if true_near and pred_near:
        return "Q2"
    if true_near:
        return "Q3"
    if pred_near:
        return "Q4"
    return "Q1"


def quadrant_matrix(
    records: Sequence[ErrorRecord], near_threshold_m: float = 4.0
) -> dict[str, QuadrantCell]:
    """Route records into the 2x2 near/far matrix and average errors per direction.

    Each record goes by (true <= threshold, predicted <= threshold) to one of
    :data:`QUADRANTS`, the keys of the result. Q1: both far. Q2: both near.
    Q3: near but predicted far (the dangerous corner). Q4: far but predicted near.
    """
    buckets: dict[str, dict[str, list[float]]] = {
        q: {"over": [], "under": []} for q in QUADRANTS
    }
    for rec in records:
        quadrant = _route(rec.true_distance_m, rec.predicted_distance_m, near_threshold_m)
        err = rec.signed_error_m
        if err < 0:
            buckets[quadrant]["over"].append(-err)
        else:
            buckets[quadrant]["under"].append(err)

    cells = {}
    for q in QUADRANTS:
        over = buckets[q]["over"]
        under = buckets[q]["under"]
        cells[q] = QuadrantCell(
            ase_over_m=math.fsum(over) / len(over) if over else None,
            ase_under_m=math.fsum(under) / len(under) if under else None,
            count_over=len(over),
            count_under=len(under),
        )
    return cells


def write_records_csv(records: Iterable[ErrorRecord], path: str | Path) -> None:
    """Per-record CSV; errors converted to centimeters at this boundary only."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_id", "class", "true_m", "pred_m", "signed_error_cm"])
        for rec in records:
            writer.writerow(
                [
                    rec.frame_id,
                    rec.class_label,
                    rec.true_distance_m,
                    rec.predicted_distance_m,
                    rec.signed_error_m * 100.0,
                ]
            )


def write_summary_csv(
    per_class: Mapping[str, Sequence[ErrorRecord]], path: str | Path
) -> None:
    """One row per class (keys iterated in sorted order), values in centimeters."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "class",
                "count",
                "median_cm",
                "q1_cm",
                "q3_cm",
                "min_cm",
                "max_cm",
                "median_abs_cm",
                "mape_pct",
            ]
        )
        for label in sorted(per_class):
            records = per_class[label]
            summary = summarize(records)
            writer.writerow(
                [
                    label,
                    summary.count,
                    summary.median_m * 100.0,
                    summary.q1_m * 100.0,
                    summary.q3_m * 100.0,
                    summary.min_m * 100.0,
                    summary.max_m * 100.0,
                    median_absolute_error(records) * 100.0,
                    summary.mape_pct,
                ]
            )


def write_quadrant_csv(matrix: dict[str, QuadrantCell], path: str | Path) -> None:
    """Eight rows: each quadrant's over and under buckets (ase_cm empty when no data)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quadrant", "bucket", "ase_cm", "count"])
        for q in QUADRANTS:
            cell = matrix[q]
            over = "" if cell.ase_over_m is None else cell.ase_over_m * 100.0
            under = "" if cell.ase_under_m is None else cell.ase_under_m * 100.0
            writer.writerow([q, "over", over, cell.count_over])
            writer.writerow([q, "under", under, cell.count_under])
