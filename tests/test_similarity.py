import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semse.similarity import (
    SimilaritySurface,
    SurfaceError,
    default_surrogate,
    load_surface,
)

from oracles import query

# similarity.py reproduces np.interp's formula, so its tests run at the oldest supported numpy
pytestmark = pytest.mark.numpy_floor


def small_surface():
    return SimilaritySurface(
        k_values=np.array([1, 2, 3]),
        snr_grid_db=np.array([0.0, 5.0, 10.0]),
        xi=np.array([
            [0.1, 0.4, 0.6],
            [0.2, 0.5, 0.8],
            [0.3, 0.7, 0.9],
        ]),
    )


class TestQuery:
    def test_grid_point_returns_stored_value(self):
        s = small_surface()
        for i, k in enumerate([1, 2, 3]):
            for j, g in enumerate([0.0, 5.0, 10.0]):
                assert query(s, k, g) == s.xi[i, j]

    def test_midpoint_is_arithmetic_mean(self):
        s = small_surface()
        assert query(s, 1, 2.5) == pytest.approx((0.1 + 0.4) / 2, rel=1e-12)
        assert query(s, 3, 7.5) == pytest.approx((0.7 + 0.9) / 2, rel=1e-12)

    def test_clamps_to_edges(self):
        s = small_surface()
        assert query(s, 2, 50.0) == 0.8
        assert query(s, 2, -50.0) == 0.2

    def test_unknown_k_is_an_error(self):
        s = small_surface()
        with pytest.raises(ValueError):
            query(s, 4, 5.0)
        with pytest.raises(ValueError):
            query(s, 0, 5.0)

    def test_array_query_matches_scalar_queries(self):
        s = small_surface()
        rng = np.random.default_rng(3)
        snrs = rng.uniform(-5, 15, size=(4, 2, 3))
        for k in (1, 2, 3):
            block = query(s, k, snrs)
            assert block.shape == snrs.shape
            for idx in np.ndindex(snrs.shape):
                assert block[idx] == query(s, k, float(snrs[idx]))
        assert type(query(s, 2, 5.0)) is float
        with pytest.raises(ValueError):
            query(s, 4, snrs)

    def test_monotone_in_snr(self):
        s = small_surface()
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b = np.sort(rng.uniform(-20, 30, 2))
            k = int(rng.integers(1, 4))
            assert query(s, k, a) <= query(s, k, b)

    def test_range_bounds(self):
        s = default_surrogate(10)
        rng = np.random.default_rng(6)
        snrs = rng.uniform(-40, 40, 100)
        vals = np.stack([query(s, k, snrs) for k in s.k_values])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestValidation:
    def test_out_of_range_entry_rejected(self):
        with pytest.raises(SurfaceError, match="out of"):
            SimilaritySurface(
                np.array([1]), np.array([0.0, 1.0]), np.array([[0.5, 1.2]])
            )

    def test_non_monotone_snr_grid_rejected(self):
        with pytest.raises(SurfaceError, match="increasing"):
            SimilaritySurface(
                np.array([1]), np.array([0.0, 0.0]), np.array([[0.5, 0.5]])
            )

    def test_decreasing_row_rejected(self):
        with pytest.raises(SurfaceError, match="decreases"):
            SimilaritySurface(
                np.array([1]), np.array([0.0, 1.0]), np.array([[0.5, 0.4]])
            )

    def test_duplicate_k_rejected(self):
        with pytest.raises(SurfaceError):
            SimilaritySurface(
                np.array([2, 2]), np.array([0.0]), np.array([[0.5], [0.5]])
            )

    @pytest.mark.parametrize("k, bad", [([1.5, 2.9], "1.5"), ([1.0, np.nan], "nan")])
    def test_non_integer_k_rejected(self, k, bad):
        # [1.5, 2.9] used to become k [1, 2] silently, so query(s, 1, 5.0) read 0.55
        with pytest.raises(SurfaceError, match=f"k values must be integers, got {bad}"):
            SimilaritySurface(k, [0.0, 10.0], [[0.5, 0.6], [0.7, 0.8]])

    def test_integral_float_k_accepted(self):
        s = SimilaritySurface([1.0, 2.0], [0.0, 10.0], [[0.5, 0.6], [0.7, 0.8]])
        assert s.k_values.tolist() == [1, 2] and query(s, 2, 0.0) == 0.7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SurfaceError):
            SimilaritySurface(np.array([1, 2]), np.array([0.0]), np.array([[0.5]]))

    def test_overflowing_slope_rejected(self):
        # the step from 0 to 1 over 1e-310 dB used to interpolate to inf
        with pytest.raises(SurfaceError, match=r"slope at k=1 between 0.0 dB and 1e-310 dB"):
            SimilaritySurface([1], [0.0, 1e-310, 10.0], [[0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("grid, row", [
        ([0.0, np.nan], [0.5, 0.5]),
        ([0.0, np.inf], [0.5, 0.5]),
        ([0.0, 1.0], [0.5, np.nan]),
    ])
    def test_non_finite_entries_rejected(self, grid, row):
        with pytest.raises(SurfaceError, match="finite"):
            SimilaritySurface([1], grid, [row])

    def test_empty_grid_rejected(self, tmp_path):
        # used to load, then fail in np.interp at the first query
        p = tmp_path / "surface.csv"
        p.write_text("k\\snr\n1\n", encoding="utf-8")
        with pytest.raises(SurfaceError, match="at least one column"):
            load_surface(p)

    def test_grid_wider_than_a_float_rejected(self):
        with pytest.raises(SurfaceError, match="wider than a float"):
            SimilaritySurface([1], [-1e308, 1e308], [[0.0, 1.0]])


@st.composite
def surface_grids(draw):
    """(k values, SNR grid, similarity rows) of a valid surface."""
    k = sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True)))
    grid = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8, unique=True)))
    rows = st.lists(st.floats(0.0, 1.0), min_size=len(grid), max_size=len(grid)).map(sorted)
    return k, grid, [draw(rows) for _ in k]


def slope_overflows(grid, rows) -> bool:
    """Whether np.interp's slope (xi[j+1] - xi[j]) / (grid[j+1] - grid[j]) overflows."""
    with np.errstate(over="ignore"):
        slopes = np.diff(np.asarray(rows, dtype=float), axis=1) / np.diff(grid)
    return bool(np.any(slopes == np.inf))


def same_bits(a, b) -> bool:
    """Equal values with equal sign bits, NaN where the other is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


@st.composite
def uneven_surfaces(draw):
    """(k values, SNR grid, rows) with grid spacings from subnormal to 1e306."""
    grid = sorted(draw(st.lists(
        st.one_of(st.floats(-1e306, 1e306), st.floats(-1e-300, 1e-300)),
        min_size=1, max_size=7, unique=True,
    )))
    rows = st.lists(st.floats(0.0, 1.0), min_size=len(grid), max_size=len(grid)).map(sorted)
    k = list(range(1, draw(st.integers(1, 3)) + 1))
    return k, grid, [draw(rows) for _ in k]


class TestInterp:
    @settings(max_examples=300, deadline=None)
    @given(uneven_surfaces(), st.lists(st.floats(allow_nan=False), max_size=6))
    def test_query_equals_np_interp_bit_for_bit(self, surface, extra):
        k, grid, rows = surface
        if slope_overflows(grid, rows):
            with pytest.raises(SurfaceError, match="slope"):
                SimilaritySurface(k, grid, rows)
            return
        s = SimilaritySurface(k, grid, rows)
        g = np.asarray(grid)
        snrs = np.concatenate([
            g, np.nextafter(g, -np.inf), np.nextafter(g, np.inf),
            [g[0] - 1.0, g[-1] + 1.0, -1e308, 1e308, -np.inf, np.inf], extra,
        ])
        for kk, row in zip(k, rows):
            got = query(s, kk, snrs)
            assert same_bits(got, np.interp(snrs, g, s.xi[kk - 1]))
            assert same_bits(got, [query(s, kk, float(x)) for x in snrs])
            # np.interp gives the column's value for NaN on a one-column grid
            assert np.isnan(query(s, kk, np.nan))
            if g.size > 1:
                assert np.isnan(np.interp(np.nan, g, s.xi[kk - 1]))

    def test_locate_once_serves_every_row(self):
        s = small_surface()
        snrs = np.array([[-1.0, 0.0, 2.5], [5.0, 9.0, 12.0]])
        located = s.locate(snrs)
        for k in (1, 2, 3):
            assert same_bits(s.interpolate(k, located), query(s, k, snrs))

    def test_negative_zero_entries_read_as_zero(self):
        s = SimilaritySurface([1], [-1.0, 0.0, 1.0], [[-0.0, -0.0, 0.5]])
        assert same_bits(query(s, 1, [-2.0, -1.0, -0.0, 0.0]), [0.0, 0.0, 0.0, 0.0])


class TestLoad:
    @settings(deadline=None)
    @given(surface_grids())
    def test_repr_written_surface_reads_back_equal(self, surface):
        k, grid, rows = surface
        lines = ["k\\snr," + ",".join(map(repr, grid))]
        lines += [f"{kk}," + ",".join(map(repr, row)) for kk, row in zip(k, rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "surface.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if slope_overflows(grid, rows):
                # a subnormal SNR spacing under a similarity step
                with pytest.raises(SurfaceError, match="slope"):
                    load_surface(path)
                return
            loaded = load_surface(path)
        assert np.array_equal(loaded.k_values, k) and loaded.k_values.dtype.kind == "i"
        assert np.array_equal(loaded.snr_grid_db, grid)
        assert np.array_equal(loaded.xi, rows)

    def write(self, tmp_path, text):
        p = tmp_path / "surface.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_round_trip(self, tmp_path):
        p = self.write(
            tmp_path,
            "k\\snr,0,5,10\n"
            "1,0.1,0.4,0.6\n"
            "2,0.2,0.5,0.8\n"
            "3,0.3,0.7,0.9\n",
        )
        s = load_surface(p)
        assert np.array_equal(s.k_values, [1, 2, 3])
        assert np.array_equal(s.snr_grid_db, [0.0, 5.0, 10.0])
        assert s.xi.shape == (3, 3)
        assert query(s, 2, 5.0) == 0.5

    def test_rejects_out_of_range_cell(self, tmp_path):
        p = self.write(tmp_path, "k\\snr,0,5\n1,0.5,1.2\n")
        with pytest.raises(SurfaceError, match="k=1"):
            load_surface(p)

    def test_rejects_duplicate_snr_column(self, tmp_path):
        p = self.write(tmp_path, "k\\snr,0,0\n1,0.5,0.5\n")
        with pytest.raises(SurfaceError, match="increasing"):
            load_surface(p)

    def test_rejects_ragged_row(self, tmp_path):
        p = self.write(tmp_path, "k\\snr,0,5\n1,0.5\n")
        with pytest.raises(SurfaceError, match=r"surface\.csv:2: 1 entries, expected 2$"):
            load_surface(p)

    def test_rejects_non_numeric(self, tmp_path):
        p = self.write(tmp_path, "k\\snr,0,5\n1,0.5,abc\n")
        with pytest.raises(SurfaceError):
            load_surface(p)

    @pytest.mark.parametrize("label, line", [("1.5", 2), ("2.9", 3), ("inf", 2), ("nan", 3)])
    def test_rejects_non_integral_k_label(self, tmp_path, label, line):
        # a truncated label would silently load 1.5 as k = 1
        rows = ["1", "2"]
        rows[line - 2] = label
        p = self.write(tmp_path, f"k\\snr,0,10\n{rows[0]},0.2,0.9\n{rows[1]},0.3,0.95\n")
        with pytest.raises(SurfaceError, match=rf"\.csv:{line}: k must be an integer, got '{label}'"):
            load_surface(p)

    def test_integral_float_k_label_loads(self, tmp_path):
        p = self.write(tmp_path, "k\\snr,0,10\n1,0.2,0.9\n2.0,0.3,0.95\n")
        s = load_surface(p)
        assert s.k_values.tolist() == [1, 2]
        assert query(s, 2, 5.0) == pytest.approx(0.625)


class TestSurrogate:
    def test_pinned_value(self):
        # amplitude 0.8 at k=1, logistic midpoint at 4 dB
        s = default_surrogate(3)
        assert query(s, 1, 4.0) == pytest.approx(0.400, abs=1e-9)

    def test_amplitude_formula(self):
        s = default_surrogate(20)
        for k in (1, 2, 5, 20):
            amp = 1 - 0.2 * np.exp(-0.4 * (k - 1))
            mid = 5.0 - k
            for g in (-10.0, 0.0, 13.0, 20.0):
                expect = amp / (1 + np.exp(-0.3 * (g - mid)))
                assert query(s, k, g) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_snr_everywhere(self):
        s = default_surrogate(20)
        assert np.all(np.diff(s.xi, axis=1) >= 0)

    def test_monotone_in_k_everywhere(self):
        s = default_surrogate(20)
        assert np.all(np.diff(s.xi, axis=0) >= 0)

    def test_saturates_below_one(self):
        s = default_surrogate(20)
        assert np.all(s.xi < 1.0)

    def test_covers_requested_range(self):
        s = default_surrogate(7)
        assert s.pieces(range(1, 8)).shape == (7, s.snr_grid_db.size)
        with pytest.raises(ValueError, match="^k=8 is not tabulated in this surface$"):
            s.pieces(range(1, 9))

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            default_surrogate(0)
