import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpembed import dataset
from gpembed.dataset import (
    BLOCK_VALUES,
    Dataset,
    DatasetError,
    from_arrays,
    load_csv,
    neighbour_order,
    normalize,
    read_csv,
    sq_distances,
)
from gpembed.expr import FLOAT_MAX, Individual, eval_individual, parse
from gpembed.harness import knn_cv_accuracy
from gpembed.manifold_cost import embedding_cost
from oracles import brute_neighbour_order


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestNormalize:
    def test_minmax_endpoints(self):
        out = normalize(np.array([[0.0, 10.0], [1.0, 20.0], [2.0, 30.0]]))
        assert np.array_equal(out, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])

    def test_constant_column_becomes_zero(self):
        out = normalize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.array_equal(out[:, 0], [0.0, 0.0, 0.0])
        assert np.array_equal(out[:, 1], [0.0, 0.5, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 5)) * 37.0 + 4.0
        once = normalize(X)
        twice = normalize(once)
        assert np.abs(twice - once).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 10), st.integers(1, 5)),
            elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                               st.sampled_from([-FLOAT_MAX, FLOAT_MAX])),
        )
    )
    def test_output_always_in_unit_interval(self, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(X)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_column_wider_than_float_max(self):
        # max - min overflows: that column is halved first, the other one is untouched
        X = np.array([[1e308, 0.37], [-1e308, 1.21], [0.0, 9.9]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(X)
        assert out[:, 0].tolist() == [1.0, 0.0, 0.5]
        assert np.array_equal(out[:, 1], normalize(X[:, 1:])[:, 0])


class TestNeighbourOrder:
    def test_two_points(self):
        order = neighbour_order(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert order.tolist() == [[1], [0]]

    def test_points_on_a_line(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        order = neighbour_order(pts)
        assert order[0].tolist() == [1, 2, 3]
        assert order.tolist() == brute_neighbour_order(pts)

    def test_equidistant_ties_resolve_by_index(self):
        # both neighbours exactly one unit from point 0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        order = neighbour_order(pts)
        assert order[0].tolist() == [1, 2]
        # all four corners of a square: every row has an exact tie
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sq_order = neighbour_order(square)
        assert sq_order[0].tolist() == [1, 2, 3]
        assert sq_order[3].tolist() == [1, 2, 0]

    def test_matches_bruteforce_on_random_points(self):
        rng = np.random.default_rng(99)
        pts = rng.normal(size=(5, 3))
        assert neighbour_order(pts).tolist() == brute_neighbour_order(pts)

    def test_max_neighbours_truncates(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(10, 2))
        full = neighbour_order(pts)
        capped = neighbour_order(pts, max_neighbours=4)
        assert capped.shape == (10, 4)
        assert np.array_equal(capped, full[:, :4])

    @pytest.mark.parametrize("levels, dims", [(4, 3), (3, 2)])
    def test_matches_bruteforce_across_row_blocks(self, levels, dims, monkeypatch):
        # a coarse grid forces exact distance ties in every row block; on the
        # 3 x 3 grid each point has ~33 duplicates, so with 20 neighbours many
        # rows list only lower-index duplicates and never reach themselves.
        # Blocks of 70 rows: four full ones, then a partial one of 20
        monkeypatch.setattr(dataset, "BLOCK_VALUES", 70 * 300)
        rng = np.random.default_rng(41)
        pts = rng.integers(0, levels, size=(300, dims)).astype(float)
        want = brute_neighbour_order(pts)
        assert neighbour_order(pts).tolist() == want
        assert neighbour_order(pts, max_neighbours=20).tolist() == [row[:20] for row in want]

    def test_rejects_non_positive_max_neighbours(self):
        with pytest.raises(DatasetError, match="max_neighbours"):
            neighbour_order(np.eye(3), max_neighbours=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 300),
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([1.0, 1e-160, 2.0**-539, 1e-310, 1e154, 1e200]),
        st.sampled_from([0.0, 1e6, 1e8]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["1", "2", "n-2"]),
    )
    @example(4, 2, 3, False, 1.0, 1e8, 2, "1")  # a zero slack drops a tied candidate
    # n >= 50 (kth + 1): each row's bound comes from minima over sets of 6 or 4 columns
    @example(300, 2, 3, False, 1.0, 1e8, 2, "1")
    @example(300, 3, 4, True, 1.0, 1e8, 3, "2")
    @example(300, 3, 4, False, 1.0, 0.0, 4, "2")
    def test_candidate_filter_keeps_the_exact_order(self, n, dims, levels, jitter, scale,
                                                    offset, seed, which):
        # the all-neighbour case never filters, but it shares the capped
        # case's sort, so unscaled grids also meet the brute-force oracle;
        # a coarse integer grid ties many distances, the scales reach
        # subnormal squares and squared norms that overflow, and the offsets
        # (1e8 as in the KNN test) make the approximate distance round exact
        # ties apart, so a zero slack drops tied candidates.  Blocks of
        # max(1, (n - 1) // 4) rows: at least four once n >= 4; at n = 300,
        # four of 74 rows, then a partial one of 4
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, levels, size=(n, dims)).astype(float)
        if jitter:
            pts += rng.normal(size=pts.shape)
        pts = pts * scale + offset
        k = {"1": 1, "2": 2, "n-2": n - 2}[which]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "BLOCK_VALUES", n * max(1, (n - 1) // 4))
            capped = neighbour_order(pts, max_neighbours=k)
            assert np.array_equal(capped, neighbour_order(pts)[:, :k])
        if not jitter and scale == 1.0 and offset == 0.0:
            # small-integer squared distances: the oracle's sqrt keeps their order
            assert capped.tolist() == [row[:k] for row in brute_neighbour_order(pts)]

    def test_rows_short_of_finite_minima_keep_only_outside_columns(self):
        # 301 columns in 50 interleaved sets of 6, the last column in none:
        # rows 0..298 form one group whose only outside columns are 299 and
        # 300, so they see one finite minimum where kth = 1 needs two; the
        # threshold then admits every finite column, never one of the group's
        X = np.random.default_rng(0).normal(size=(301, 2))
        for block, index in dataset.gram_candidates(X, 1, (0, 299, 301)):
            for row, listed in zip(range(block.start, block.stop), index):
                own = slice(0, 299) if row < 299 else slice(299, 301)
                d2 = ((X - X[row]) ** 2).sum(axis=1)
                d2[own] = np.inf
                listed = listed[listed < 301]
                assert not np.isinf(d2[listed]).any()
                assert set(np.argsort(d2, kind="stable")[:2]) <= set(listed)

    def test_underflowed_squares_keep_the_exact_order(self):
        # squares of 2**-539-sized steps lose most of their bits below the
        # smallest subnormal; only the absolute term of the bound covers that
        grid = [[0, 5], [4, 6], [3, 2], [0, 3], [5, 6], [6, 1], [4, 6], [2, 2], [6, 4]]
        pts = np.array(grid, dtype=float) * 2.0**-539
        assert neighbour_order(pts, max_neighbours=1)[:, 0].tolist() == [3, 4, 7, 0, 1, 2, 1, 2, 1]
        assert np.array_equal(neighbour_order(pts, max_neighbours=2), neighbour_order(pts)[:, :2])

    def test_ties_at_the_threshold_keep_every_tied_candidate(self, monkeypatch):
        # the origin's four nearest are all one unit away: with k = 1 or 2 the
        # threshold admits all four, so its row holds more than k + 1 candidates
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                        [5.0, 5.0]])
        widths = []

        def spy(points, others, index):
            widths.append(np.shape(index)[-1])
            return sq_distances(points, others, index)

        monkeypatch.setattr(dataset, "sq_distances", spy)
        assert neighbour_order(pts, max_neighbours=1)[:, 0].tolist() == [1, 0, 0, 0, 0, 1]
        assert widths == [5]
        assert neighbour_order(pts, max_neighbours=2)[0].tolist() == [1, 2]
        assert widths == [5, 5]
        want = brute_neighbour_order(pts)
        assert neighbour_order(pts, max_neighbours=3).tolist() == [row[:3] for row in want]

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_rows_are_permutations_of_others(self, pts):
        order = neighbour_order(pts)
        n = pts.shape[0]
        for i in range(n):
            assert sorted(order[i].tolist()) == [j for j in range(n) if j != i]

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 7), st.integers(1, 3)),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        st.floats(0.1, 1000.0),
    )
    def test_invariant_under_uniform_scaling(self, pts, scale):
        assert np.array_equal(neighbour_order(pts), neighbour_order(pts * scale))


def left_to_right(points, others, index):
    """`sq_distances` by one scalar sum per pair, column 0 first."""
    index = np.broadcast_to(index, np.broadcast_shapes((len(points), 1), np.shape(index)))
    want = np.zeros(index.shape)
    for i, j in np.ndindex(index.shape):
        total = 0.0
        for c in range(points.shape[1]):
            d = float(points[i, c]) - float(others[index[i, j], c])
            total += d * d
        want[i, j] = total
    return want


class TestSqDistances:
    def test_one_and_zero_columns_match_left_to_right_sum(self):
        rng = np.random.default_rng(4)
        index = rng.integers(0, 6, size=(6, 4))
        for width in (0, 1, 3):
            P = rng.normal(size=(6, width)) * 1e154  # some squares overflow to +inf
            got = sq_distances(P, P, index)
            assert got.shape == index.shape
            assert got.tobytes() == left_to_right(P, P, index).tobytes()
            assert np.isinf(got).any() == (width > 0)

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_one_index_for_all_rows(self, width):
        # neighbour_order's all-neighbour call: a 1-D index that every row of
        # a block shares, into the points padded with a row of +inf
        rng = np.random.default_rng(width)
        X = rng.integers(0, 3, size=(7, width)) + rng.normal(size=(7, width)) * 1e-3
        padded = np.vstack([X, np.full((1, width), np.inf)])
        points, before = padded[2:5], padded.copy()
        for index in (np.arange(7), np.arange(8)[::-1]):
            got = sq_distances(points, padded, index)
            assert got.shape == (3, index.shape[0])
            assert got.tobytes() == left_to_right(points, padded, index).tobytes()
            assert padded.tobytes() == before.tobytes()  # points is a view of it
        assert np.isinf(got[:, 0]).all()  # the padding, from every row


class TestMemory:
    def test_peak_allocation_is_bounded_at_moderate_n(self):
        # a full n x n x m difference array would be 180 MB here
        n, m, k = 1500, 10, 50
        rng = np.random.default_rng(5)
        X = rng.normal(size=(n, m))
        embedding = rng.normal(size=(n, 4))
        tracemalloc.start()
        try:
            ds = from_arrays(X, max_neighbours=k)
            embedding_cost(embedding, ds.neighbour_order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.neighbour_order.shape == (n, k)
        assert peak < 32e6, f"peak allocation {peak / 1e6:.1f} MB"

    def test_neighbour_order_holds_a_few_row_blocks(self):
        # a block is BLOCK_VALUES float64s; the candidate filter must stay under
        # 4 blocks plus the (n, k) result.  On identical rows every column is a
        # candidate, so each block ranks n columns; that must stay under 6 blocks
        n, m, k = 2000, 10, 50
        for X, blocks in ((np.random.default_rng(6).normal(size=(n, m)), 4),
                          (np.ones((n, m)), 6)):
            tracemalloc.start()
            try:
                order = neighbour_order(X, max_neighbours=k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert order.shape == (n, k)
            bound = blocks * BLOCK_VALUES * 8 + n * k * 8
            assert peak < bound, f"peak allocation {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
        # every distance ties, so each row lists the others by index
        assert order.tolist() == [[j for j in range(k + 1) if j != i][:k] for i in range(n)]

    def test_all_neighbour_cost_holds_a_few_blocks(self):
        # every row ranks all n - 1 others, so one (n, n - 1) temporary would be
        # 18 MB; the blocks must stay under 4 of BLOCK_VALUES float64s
        n = 1500
        rng = np.random.default_rng(7)
        order = neighbour_order(rng.normal(size=(n, 5)))
        embedding = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            embedding_cost(embedding, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 4 * BLOCK_VALUES * 8 + n * 8
        assert peak < bound, f"peak allocation {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

    def test_knn_cv_accuracy_holds_a_few_blocks(self):
        # a fold of 200 test rows against 1,800 training rows is 2.9 MB of
        # distances at once; the blocks must stay under 3 of BLOCK_VALUES float64s
        n = 2000
        rng = np.random.default_rng(8)
        X, labels = rng.normal(size=(n, 10)), rng.integers(0, 3, size=n)
        tracemalloc.start()
        try:
            knn_cv_accuracy(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 3 * BLOCK_VALUES * 8
        assert peak < bound, f"peak allocation {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,10\n1,20\n2,30\n")
        ds = load_csv(path)
        assert ds.instances.tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
        assert ds.feature_names == ("x", "y")
        assert ds.labels is None

    def test_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y,cls\n0,1,b\n1,2,a\n2,3,b\n")
        ds = load_csv(path, label_column="cls")
        assert ds.n_features == 2
        assert ds.label_names == ("a", "b")
        assert ds.labels.tolist() == [1, 0, 1]

    def test_leading_utf8_bom_is_dropped(self, tmp_path):
        # spreadsheets often export CSVs with a byte-order mark
        path = write_csv(tmp_path / "d.csv", "\ufeffcls,x,y\nb,0,1\na,1,2\nb,2,3\n")
        ds = load_csv(path, label_column="cls")
        assert ds.feature_names == ("x", "y")
        assert ds.label_names == ("a", "b")

    def test_constant_column_zeroed(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b\n5,1\n5,2\n5,3\n")
        ds = load_csv(path)
        assert ds.instances[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot open"):
            load_csv(tmp_path / "nope.csv")

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\n2,oops\n3,4\n")
        with pytest.raises(DatasetError, match=r"row 3.*'y'.*'oops'"):
            load_csv(path)

    @pytest.mark.parametrize("label_at", [0, 1, 3])
    def test_matrix_matches_a_float_per_cell(self, tmp_path, label_at):
        cells = [[" 2.5 ", "1_000", "-0", "1e-310"],
                 ["3.141592653589793", "+7", "1E3", "0.1"],
                 ["-1.5e308", "  .5", "2", "-4.9e-324"]]
        header = ["a", "b", "c", "d"]
        header.insert(label_at, "cls")
        lines = [",".join(header)]
        for i, row in enumerate(cells):
            lines.append(",".join(row[:label_at] + [f" L{i} "] + row[label_at:]))
        path = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
        matrix, labels, names = read_csv(path, label_column="cls")
        want = np.array([[float(c) for c in row] for row in cells])
        assert matrix.dtype == np.float64
        assert matrix.tobytes() == want.tobytes()
        assert labels == ["L0", "L1", "L2"]
        assert names == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("bad_row, message", [
        ("1,inf,x,oops", r"row 3, column 'y': non-finite value 'inf'$"),
        ("1, oops ,x,inf", r"row 3, column 'y': cannot parse 'oops' as a number$"),
        ("1,2,x,1e999", r"row 3, column 'z': non-finite value '1e999'$"),
    ])
    def test_error_names_the_first_bad_row_then_cell(self, tmp_path, bad_row, message):
        # the label column sits between y and z; row 4 is bad too, but later
        path = write_csv(tmp_path / "d.csv",
                         f"x,y,cls,z\n0,1,a,2\n{bad_row}\nnan,oops,b,3\n")
        with pytest.raises(DatasetError, match=message):
            read_csv(path, label_column="cls")

    def test_rejects_non_finite(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\nnan,2\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(path)

    def test_too_few_instances(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\n")
        with pytest.raises(DatasetError, match="at least 2 instances"):
            load_csv(path)

    def test_too_few_features(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,cls\n0,a\n1,b\n", )
        with pytest.raises(DatasetError, match="at least 2 feature"):
            load_csv(path, label_column="cls")

    def test_duplicate_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,x\n0,1\n1,2\n")
        with pytest.raises(DatasetError, match="duplicate column"):
            load_csv(path)

    def test_unknown_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\n1,2\n")
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(path, label_column="cls")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\n1\n")
        with pytest.raises(DatasetError, match="row 3 has 1 cells"):
            load_csv(path)

    def test_loading_twice_is_bitwise_identical(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0.37,5\n1.21,7\n9.9,1\n2,2\n")
        a = load_csv(path)
        b = load_csv(path)
        assert np.array_equal(a.instances, b.instances)
        assert np.array_equal(a.neighbour_order, b.neighbour_order)

    def test_arrays_are_read_only(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n0,1\n1,2\n")
        ds = load_csv(path)
        with pytest.raises(ValueError):
            ds.instances[0, 0] = 5.0


class TestFromArrays:
    def test_dataset_built_directly_is_read_only(self):
        # a tree's column is cached per Dataset, so its arrays must not change
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        labels = np.array([0, 1, 1])
        order = neighbour_order(X)
        ds = Dataset(X, labels, ("a", "b"), ("x", "y"), order)
        assert not any(a.flags.writeable for a in (ds.instances, ds.labels, ds.neighbour_order))
        with pytest.raises(ValueError):
            X[0, 0] = 10.0
        assert Dataset(X, None, None, ("x", "y"), order).labels is None

    def test_dataset_built_on_a_view_does_not_change_with_its_base(self):
        base = np.ones((3, 3))
        X = base[:, :2]
        ds = Dataset(X, None, None, ("x", "y"), neighbour_order(X))
        ind = Individual(trees=(parse("(add f0 f1)"),))
        assert eval_individual(ind, ds)[:, 0].tolist() == [2.0, 2.0, 2.0]
        base[0, 0] = 10.0
        assert ds.instances.tolist() == [[1.0, 1.0]] * 3
        assert eval_individual(ind, ds)[:, 0].tolist() == [2.0, 2.0, 2.0]

    def test_rejects_nan(self):
        with pytest.raises(DatasetError, match="NaN or infinite"):
            from_arrays([[0.0, np.nan], [1.0, 2.0]])

    def test_label_count_mismatch(self):
        with pytest.raises(DatasetError, match="labels"):
            from_arrays([[0.0, 1.0], [1.0, 2.0]], labels=["a"])

    def test_neighbour_order_uses_normalized_space(self):
        # raw space: col 1 dominates; normalized space: both columns equal weight
        X = np.array([[0.0, 0.0], [1.0, 1000.0], [2.0, 1.0]])
        ds = from_arrays(X)
        expected = brute_neighbour_order(normalize(X))
        assert ds.neighbour_order.tolist() == expected
