"""Tabular dataset loading, normalization, and neighbour precomputation.

Columns are min-max scaled to [0, 1] (constant columns become all zeros)
and each point's ordering of every other point by ascending input-space
distance is computed once up front; the embedding-quality objective only
ever reads these orderings.  All squared distances, here and in the
objective and the KNN harness, come from `sq_distances`, which sums squared
coordinate differences in column order, as the test oracles do.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric dataset; its arrays are marked read-only when it is built,
    as evaluation keeps each tree's column per Dataset (`expr.memoized`)."""

    instances: np.ndarray  # (n, m) float64, normalized
    labels: np.ndarray | None  # (n,) int class codes, or None
    label_names: tuple[str, ...] | None
    feature_names: tuple[str, ...]
    neighbour_order: np.ndarray  # (n, k) int, k = min(n - 1, max_neighbours)

    def __post_init__(self):
        for arr in (self.instances, self.labels, self.neighbour_order):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_instances(self) -> int:
        return self.instances.shape[0]

    @property
    def n_features(self) -> int:
        return self.instances.shape[1]


def normalize(matrix: np.ndarray) -> np.ndarray:
    """Min-max scale each column to [0, 1]; constant columns map to zeros, and a
    column whose range overflows float64 (wider than FLOAT_MAX) is halved first."""
    X = np.asarray(matrix, dtype=np.float64)
    with np.errstate(over="ignore"):
        wide = np.isinf(X.max(axis=0) - X.min(axis=0))
    X = np.where(wide, X / 2.0, X)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    out = np.zeros_like(X)
    varying = span > 0
    out[:, varying] = (X[:, varying] - lo[varying]) / span[varying]
    return out


ROW_BLOCK = 256  # rows of the n x n distance matrix held at once by neighbour_order


def sq_distances(points: np.ndarray, others: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``d[i, j]``: squared Euclidean distance from ``points[i]`` to ``others[index[i, j]]``.

    `index` broadcasts against ``(len(points), 1)``.  Squared coordinate
    differences are added one column at a time, in column order, the same
    left-to-right sum the test oracles make, so distances that are equal in
    exact arithmetic tie whatever SIMD path numpy takes.  Only the gathered
    pairs are held, never an n x n x d difference array.
    """
    P = np.asarray(points, dtype=np.float64)
    O = np.asarray(others, dtype=np.float64)
    shape = np.broadcast_shapes((P.shape[0], 1), np.shape(index))
    acc = np.zeros(shape)
    d = np.empty(shape)
    with np.errstate(over="ignore"):  # coordinates far apart give +inf, which ranks last
        for c in range(P.shape[1]):
            np.subtract(P[:, c, None], O[:, c][index], out=d)
            d *= d
            acc += d
    return acc


def nearest_mask(d2: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's k smallest entries, lower column first among equals.

    Exact top-k without a full sort: with v the row's k-th smallest value,
    every entry below v is taken, then the leftmost entries equal to v until
    there are k.
    """
    v = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    nearest = d2 < v
    room = k - np.count_nonzero(nearest, axis=1)
    rows, cols = np.nonzero(d2 == v)
    # rows is sorted, so an entry's place among its row's equal entries is
    # its offset from the first of them
    place = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
    keep = place < room[rows]
    nearest[rows[keep], cols[keep]] = True
    return nearest


def neighbour_order(instances: np.ndarray, max_neighbours: int | None = None) -> np.ndarray:
    """Row i lists every j != i by ascending Euclidean distance from i.

    Equal distances are ordered by ascending index.  Ordering is computed on
    squared distances (summed in column order, see `sq_distances`), which
    sort identically and avoid rounding collisions from the square root.
    Rows are ordered ROW_BLOCK at a time, so memory stays O(ROW_BLOCK * n)
    beyond the (n, k) result.
    """
    X = np.asarray(instances, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise DatasetError(f"need at least 2 instances, got {n}")
    if not np.isfinite(X).all():
        raise DatasetError("instances contain NaN or infinite values")
    if max_neighbours is not None and max_neighbours < 1:
        raise DatasetError(f"max_neighbours must be >= 1, got {max_neighbours}")
    k = n - 1 if max_neighbours is None else min(max_neighbours, n - 1)
    everyone = np.arange(n)
    out = np.empty((n, k), dtype=np.intp)
    for lo in range(0, n, ROW_BLOCK):
        rows = everyone[lo:lo + ROW_BLOCK]
        d2 = sq_distances(X[rows], X, everyone)
        if k + 1 < n:
            # only the k + 1 nearest, self included, can be listed: select
            # them exactly, then sort just those
            _, near = np.nonzero(nearest_mask(d2, k + 1))
            near = near.reshape(rows.shape[0], k + 1)
            by_distance = np.argsort(np.take_along_axis(d2, near, axis=1), axis=1, kind="stable")
            order = np.take_along_axis(near, by_distance, axis=1)
        else:
            order = np.argsort(d2, axis=1, kind="stable")
        # drop the self column wherever the stable sort placed it; self is
        # missing from the k + 1 nearest only behind k + 1 lower-index duplicates
        drop = order == rows[:, None]
        drop[~drop.any(axis=1), -1] = True
        out[rows] = order[~drop].reshape(rows.shape[0], k)
    return out


def from_arrays(
    instances,
    labels=None,
    feature_names=None,
    max_neighbours: int | None = None,
) -> Dataset:
    """Build a Dataset from in-memory arrays (normalizes and orders neighbours)."""
    X = np.asarray(instances, dtype=np.float64)
    if X.ndim != 2:
        raise DatasetError(f"instance matrix must be 2-D, got shape {X.shape}")
    n, m = X.shape
    if n < 2:
        raise DatasetError(f"need at least 2 instances, got {n}")
    if m < 2:
        raise DatasetError(f"need at least 2 features, got {m}")
    if not np.isfinite(X).all():
        raise DatasetError("instances contain NaN or infinite values")

    label_codes = None
    label_names = None
    if labels is not None:
        raw = [str(v) for v in labels]
        if len(raw) != n:
            raise DatasetError(f"got {len(raw)} labels for {n} instances")
        names = sorted(set(raw))
        code_of = {name: i for i, name in enumerate(names)}
        label_codes = np.asarray([code_of[v] for v in raw], dtype=np.intp)
        label_names = tuple(names)

    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(m))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != m:
            raise DatasetError(f"got {len(feature_names)} feature names for {m} columns")

    norm = normalize(X)
    return Dataset(
        instances=norm,
        labels=label_codes,
        label_names=label_names,
        feature_names=feature_names,
        neighbour_order=neighbour_order(norm, max_neighbours=max_neighbours),
    )


def read_csv(path, label_column: str | None = None):
    """Parse and check a headered CSV of real numbers, with an optional label
    column; returns ``(matrix, labels, feature_names)``, labels None without one."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # drops a leading BOM
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DatasetError(f"{path}: duplicate column names {dupes}")
        if label_column is not None:
            if label_column not in header:
                raise DatasetError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        else:
            label_idx = None

        rows: list[list[float]] = []
        labels: list[str] = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for col_idx, cell in enumerate(row):
                if col_idx == label_idx:
                    labels.append(cell.strip())
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
                if not np.isfinite(value):
                    raise DatasetError(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: "
                        f"non-finite value {cell.strip()!r}"
                    )
                values.append(value)
            rows.append(values)

    if len(rows) < 2:
        raise DatasetError(f"{path}: need at least 2 instances, got {len(rows)}")
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    if len(feature_names) < 2:
        raise DatasetError(f"{path}: need at least 2 feature columns, got {len(feature_names)}")
    return (np.asarray(rows, dtype=np.float64), labels if label_idx is not None else None,
            feature_names)


def load_csv(path, label_column: str | None = None, max_neighbours: int | None = None) -> Dataset:
    """`read_csv`, normalized and with its neighbours ordered (see `from_arrays`)."""
    return from_arrays(*read_csv(path, label_column), max_neighbours=max_neighbours)
