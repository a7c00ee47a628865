"""Tabular dataset loading, normalization, and neighbour precomputation.

Columns are min-max scaled to [0, 1] (constant columns become all zeros)
and each point's ordering of every other point by ascending input-space
distance is computed once up front; the embedding-quality objective only
ever reads these orderings.  All squared distances, here and in the
objective and the KNN harness, come from `sq_distances`, which sums squared
coordinate differences in column order, as the test oracles do.

Every loop over distances (neighbour ordering, the objective, KNN scoring)
takes ``max(1, BLOCK_VALUES // w)`` rows at a time for rows w distances wide
(`row_blocks`), so a temporary holds about BLOCK_VALUES float64s (1 MB), or
one row if wider, whatever n is.  Each row's result depends on that row
alone, so the blocks never change an output.

`gram_candidates` filters the columns that two loops rank exactly:
`neighbour_order` with k < n - 1 neighbours kept, and the KNN harness's one
pass over every fold.  A row's candidates are the columns (outside its own
group, for the harness its fold) whose Gram-form value ``s_j - 2 x_i . x_j``
(s the squared norms; `np.einsum`, one thread) is at most ``A_i + 2 T_i``,
A_i the row's (kth_i + 1)-th smallest value and, for m columns,
``T_i = 8 (m + 4) 2**-53 (s_i + max s) + 2**-1000``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric dataset; its arrays (copies, if given views) are read-only
    from when it is built, as evaluation keeps each tree's column per Dataset."""

    instances: np.ndarray  # (n, m) float64, normalized
    labels: np.ndarray | None  # (n,) int class codes, or None
    label_names: tuple[str, ...] | None
    feature_names: tuple[str, ...]
    neighbour_order: np.ndarray  # (n, k) int, k = min(n - 1, max_neighbours)

    def __post_init__(self):
        for name in ("instances", "labels", "neighbour_order"):
            arr = getattr(self, name)
            if arr is not None:
                if arr.base is not None:  # a view would change with the array it views
                    object.__setattr__(self, name, arr := arr.copy())
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


BLOCK_VALUES = 1 << 17  # distances per temporary of a row-blocked loop: 1 MB of float64


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices covering rows 0..n-1 in order, ``max(1, BLOCK_VALUES // width)`` rows each."""
    step = max(1, BLOCK_VALUES // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


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
    if P.shape[1] == 0:
        return np.zeros(shape)
    d = np.empty(shape)
    with np.errstate(over="ignore"):  # coordinates far apart give +inf, which ranks last
        acc = P[:, 0, None] - O[:, 0][index]  # the sum starts here: 0.0 + x is x for x >= 0
        acc *= acc
        for c in range(1, P.shape[1]):
            np.subtract(P[:, c, None], O[:, c][index], out=d)
            d *= d
            acc += d
    return acc


def nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """``(rows, k)`` columns of each row's k smallest entries, ascending; the
    lower column goes first among equal values, and `d2` must hold no NaN.

    Exact top-k without a full sort: with v the row's k-th smallest value,
    every entry up to v is a candidate; only a row tied at v has more than k,
    and it keeps those below v, then the leftmost equal to v until there are k.
    """
    v = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    rows, cols = np.divmod(np.flatnonzero(d2 <= v), d2.shape[1])
    if rows.shape[0] > k * d2.shape[0]:
        # ordered by row, then value, then column, a candidate's place in its
        # row is its offset from the row's first candidate
        by_value = np.lexsort((d2[rows, cols], rows))
        place = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        cols = cols[np.sort(by_value[place < k])]
    return cols.reshape(-1, k)


def gram_candidates(X: np.ndarray, kth, edges=()):
    """Yield each of `row_blocks(n, n)` with its rows' candidates (module
    docstring) in column order, padded with n to a width above max(kth).
    Rows edges[g]:edges[g + 1] form group g, whose columns its rows leave out.

    No column up to a row's exact (kth_i + 1)-th smallest squared distance
    is dropped, ties included: the value plus s_i and `sq_distances`' e_ij
    each sum terms of total size <= 2 (s_i + s_j), with at most m + 2
    roundings on any term's path, so in any order each errs by about
    2 (m + 2) 2**-53 (s_i + s_j) at most, and the two differ by under T_i
    (2**-1000 covers underflow).  The kth_i + 1 columns at or below A_i have
    e_ij <= A_i + s_i + T_i, so the row's exact (kth_i + 1)-th smallest does
    too, and any column at or below that has a value <= e_ij - s_i + T_i <=
    A_i + 2 T_i.  If 8 max s overflows, every value is 0: all are candidates.
    """
    n, kth = X.shape[0], np.broadcast_to(kth, X.shape[:1])
    kths = np.flatnonzero(np.bincount(kth))  # each distinct kth, ascending
    with np.errstate(over="ignore"):
        G = X if np.isfinite(8 * np.einsum("ij,ij->i", X, X).max()) else np.zeros_like(X)
    s, cross = np.einsum("ij,ij->i", G, G), np.ascontiguousarray(-2.0 * G.T)
    slack = 16 * (X.shape[1] + 4) * 2.0**-53 * (s + s.max()) + 2.0**-999  # 2 T_i
    for block in row_blocks(n, n):
        approx = np.einsum("ij,jk->ik", G[block], cross)
        approx += s  # ||x_i - x_j||^2 - s_i, rounded
        for a, b in zip(edges[:-1], edges[1:]):  # empty slices for groups outside the block
            approx[max(a - block.start, 0):max(b - block.start, 0), a:b] = np.inf
        A = np.partition(approx, kths, axis=1)[np.arange(approx.shape[0]), kth[block], None]
        flat = np.flatnonzero(approx <= A + slack[block, None])
        del approx  # the caller's exact pass runs without it
        counts = np.diff(np.searchsorted(flat, np.arange(A.shape[0] + 1) * n))
        filled = np.arange(max(counts.max(), kths[-1] + 1)) < counts[:, None]
        index = np.full(filled.shape, n)  # padding: past every candidate
        index[filled] = flat % n  # row by row, in column order
        del flat  # nor this: n values a row when every column is a candidate
        yield block, index


def neighbour_order(instances: np.ndarray, max_neighbours: int | None = None) -> np.ndarray:
    """Row i lists every j != i by ascending Euclidean distance from i.

    Equal distances are ordered by ascending index: a row's columns go, in
    column order, through one stable argsort of their squared distances
    (summed in column order, see `sq_distances`; they sort identically and
    avoid rounding collisions from the square root), its own set to -1 so it
    sorts first.  Rows are ordered in `row_blocks` of width n, so each
    temporary holds about BLOCK_VALUES distances beyond the (n, k) result.

    With k < n - 1 a row ranks only its `gram_candidates` for kth = k (the k
    nearest and itself), then index n, +inf from every row.
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
    padded = np.vstack([X, np.full((1, X.shape[1]), np.inf)])  # index n: +inf from any row
    if k + 1 < n:  # only the k + 1 nearest, self included, can be listed
        blocks = gram_candidates(X, k)
    else:
        blocks = ((block, everyone) for block in row_blocks(n, n))
    for block, index in blocks:
        rows = everyone[block]
        d2 = sq_distances(X[rows], padded, index)
        d2[index == rows[:, None]] = -1.0  # self sorts first, before any duplicate
        order = np.argsort(d2, axis=1, kind="stable")[:, 1:k + 1]
        out[rows] = np.take_along_axis(index, order, axis=1) if k + 1 < n else order
        del d2, order  # the next block's filter runs without them
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
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
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
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DatasetError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        if label_idx is not None:
            labels.append(row.pop(label_idx).strip())
        try:
            values = list(map(float, row))
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            for name, cell in zip(feature_names, row):  # name the row's first bad cell
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(f"{path}: row {row_no}, column {name!r}: "
                                       f"cannot parse {cell.strip()!r} as a number") from None
                if not math.isfinite(value):
                    raise DatasetError(f"{path}: row {row_no}, column {name!r}: "
                                       f"non-finite value {cell.strip()!r}")
        rows.append(values)

    if len(rows) < 2:
        raise DatasetError(f"{path}: need at least 2 instances, got {len(rows)}")
    if len(feature_names) < 2:
        raise DatasetError(f"{path}: need at least 2 feature columns, got {len(feature_names)}")
    return (np.asarray(rows, dtype=np.float64), labels if label_idx is not None else None,
            feature_names)


def load_csv(path, label_column: str | None = None, max_neighbours: int | None = None) -> Dataset:
    """`read_csv`, normalized and with its neighbours ordered (see `from_arrays`)."""
    return from_arrays(*read_csv(path, label_column), max_neighbours=max_neighbours)
