import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpembed.dataset import (
    ROW_BLOCK,
    Dataset,
    DatasetError,
    from_arrays,
    load_csv,
    neighbour_order,
    normalize,
)
from gpembed.expr import FLOAT_MAX
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
    def test_matches_bruteforce_across_row_blocks(self, levels, dims):
        # a coarse grid forces exact distance ties in every row block; on the
        # 3 x 3 grid each point has ~33 duplicates, so with 20 neighbours many
        # rows list only lower-index duplicates and never reach themselves
        rng = np.random.default_rng(41)
        pts = rng.integers(0, levels, size=(ROW_BLOCK + 44, dims)).astype(float)
        want = brute_neighbour_order(pts)
        assert neighbour_order(pts).tolist() == want
        assert neighbour_order(pts, max_neighbours=20).tolist() == [row[:20] for row in want]

    def test_rejects_non_positive_max_neighbours(self):
        with pytest.raises(DatasetError, match="max_neighbours"):
            neighbour_order(np.eye(3), max_neighbours=0)

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
