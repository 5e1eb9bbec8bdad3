"""CSV dataset loading for real-data evaluations.

Schema: a header row whose leading columns are the numeric grid points
(wavelengths, times) and whose final column names the scalar response; each
data row carries the curve values followed by the response. The
difference-quotient preprocessing maps each G-point curve to its first
derivative approximation on the G-1 midpoints.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSettings, ParseError, SchemaError
from ..funcspace import Grid


@dataclass
class Dataset:
    """Fully observed curves on a common grid plus scalar responses."""

    grid: Grid
    values: np.ndarray
    responses: np.ndarray
    name: str = ""

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _parse_header(header):
    if len(header) < 3:
        raise SchemaError("need at least two grid columns and a response column")
    points = []
    for j, cell in enumerate(header[:-1]):
        try:
            points.append(float(cell))
        except ValueError:
            raise SchemaError(
                f"grid column {j + 1} has non-numeric header {cell!r}"
            ) from None
    pts = np.asarray(points)
    if np.any(np.diff(pts) <= 0):
        raise SchemaError("grid columns must be strictly increasing")
    return pts, header[-1]


def load_dataset(path, preprocess: str = "none", name: str | None = None) -> Dataset:
    """Read curves and responses from a CSV file of the documented schema.

    preprocess is "none" or "difference_quotient"; the latter replaces each
    curve by adjacent difference quotients on the midpoint grid.
    """
    if preprocess not in ("none", "difference_quotient"):
        raise InvalidSettings("preprocess must be 'none' or 'difference_quotient'")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        points, response_name = _parse_header(header)
        rows, responses = [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {i}: expected {len(header)} fields, found {len(row)}"
                )
            try:
                vals = [float(c) for c in row]
            except ValueError:
                bad = next(j for j, c in enumerate(row) if not _is_float(c))
                raise ParseError(
                    f"row {i}, column {bad + 1}: non-numeric value {row[bad]!r}"
                ) from None
            rows.append(vals[:-1])
            responses.append(vals[-1])
    if not rows:
        raise SchemaError("no data rows")
    dataset = Dataset(
        grid=Grid(points),
        values=np.asarray(rows),
        responses=np.asarray(responses),
        name=name or str(path),
    )
    if preprocess == "difference_quotient":
        dataset = difference_quotient(dataset)
    return dataset


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def difference_quotient(dataset: Dataset) -> Dataset:
    """First-derivative curves by adjacent difference quotients on midpoints."""
    t = dataset.grid.points
    dt = np.diff(t)
    deriv = (dataset.values[:, 1:] - dataset.values[:, :-1]) / dt[None, :]
    mid = (t[1:] + t[:-1]) / 2.0
    return Dataset(
        grid=Grid(mid),
        values=deriv,
        responses=dataset.responses,
        name=dataset.name,
    )


def load_query_curves(path):
    """Read prediction queries: returns (header grid points, rows of curve values).

    Accepts files with or without a trailing response column (detected by
    whether the last header cell parses as a number); a response column, if
    present, is ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        has_response = not _is_float(header[-1])
        grid_cells = header[:-1] if has_response else header
        try:
            points = np.asarray([float(c) for c in grid_cells])
        except ValueError:
            raise SchemaError("grid columns must be numeric") from None
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {i}: expected {len(header)} fields, found {len(row)}"
                )
            try:
                vals = [float(c) for c in (row[:-1] if has_response else row)]
            except ValueError:
                raise ParseError(f"row {i}: non-numeric curve value") from None
            rows.append(vals)
    return points, np.asarray(rows)
