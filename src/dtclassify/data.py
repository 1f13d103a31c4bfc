"""Labeled two-class datasets and CSV ingestion for the real-data pathway."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (rows = samples) with exactly two distinct labels.

    ``label_set`` maps group order: label_set[0] plays group 1,
    label_set[1] plays group 2.
    """

    features: np.ndarray
    labels: tuple[str, ...]
    label_set: tuple[str, str]
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if len(self.labels) != feats.shape[0]:
            raise DataError("one label per sample is required")
        present = set(self.labels)
        if present != set(self.label_set) or len(self.label_set) != 2:
            raise DataError(
                f"expected exactly the two labels {self.label_set}, "
                f"found {sorted(present)}"
            )
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def group(self, which: int) -> np.ndarray:
        """Rows belonging to group 1 or 2."""
        want = self.label_set[which - 1]
        mask = np.array([lab == want for lab in self.labels])
        return self.features[mask]

    def with_label_order(self, label_set: tuple[str, str]) -> "LabeledDataset":
        return LabeledDataset(self.features, self.labels, label_set,
                              self.feature_names)


def _parse_number(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"non-numeric cell {cell!r} at {where}") from None


def _is_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"{path}: file is empty")
    return rows


def ingest_csv(features_path, labels_path=None, label_column: str | None = None,
               positive_label: str | None = None) -> LabeledDataset:
    """Load a two-class dataset.

    Labels come either from a separate file (one per line, or a one-column
    CSV) or from a named column of the features file. A header row is
    auto-detected when the first line contains any non-numeric cell.
    Labels map to groups in first-seen order unless ``positive_label``
    pins the group-1 label.
    """
    if (labels_path is None) == (label_column is None):
        raise DataError("provide exactly one of labels_path or label_column")

    rows = _read_rows(features_path)
    header: list[str] | None = None
    if _is_header(rows[0]):
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{features_path}: no data rows after the header")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{features_path}: row {i + 1} has {len(row)} cells, "
                f"expected {width}"
            )

    col = None  # the label column's index when labels come from the file
    if label_column is not None:
        if header is None:
            raise DataError("label_column requires a header row")
        try:
            col = header.index(label_column)
        except ValueError:
            raise DataError(
                f"label column {label_column!r} not found in header"
            ) from None
        labels = [row[col].strip() for row in rows]
        names = tuple(h for j, h in enumerate(header) if j != col)
        column = header
    else:
        label_rows = _read_rows(labels_path)
        labels = [row[0].strip() for row in label_rows]
        # a header names the column, so it is not one of the labels
        if (_is_header(label_rows[0]) and len(labels) == len(rows) + 1
                and labels[0] not in labels[1:]):
            labels = labels[1:]
        if len(labels) != len(rows):
            raise DataError(
                f"{labels_path}: {len(labels)} labels for "
                f"{len(rows)} samples"
            )
        names = tuple(header) if header is not None else None
        column = range(1, width + 1)
    feats = np.array(
        [[_parse_number(cell, f"row {i + 1}, column {column[j]}")
          for j, cell in enumerate(row) if j != col]
         for i, row in enumerate(rows)]
    )

    distinct = list(dict.fromkeys(labels))
    if len(distinct) != 2:
        raise DataError(f"expected exactly 2 labels, found {distinct}")
    if positive_label is not None:
        if positive_label not in distinct:
            raise DataError(f"positive label {positive_label!r} not present")
        if distinct[0] != positive_label:
            distinct.reverse()

    return LabeledDataset(feats, tuple(labels), (distinct[0], distinct[1]),
                          names)
