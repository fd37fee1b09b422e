import numpy as np
import pytest

from semse.similarity import (
    SimilaritySurface,
    SurfaceError,
    default_surrogate,
    load_surface,
)


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
                assert s.query(k, g) == s.xi[i, j]

    def test_midpoint_is_arithmetic_mean(self):
        s = small_surface()
        assert s.query(1, 2.5) == pytest.approx((0.1 + 0.4) / 2, rel=1e-12)
        assert s.query(3, 7.5) == pytest.approx((0.7 + 0.9) / 2, rel=1e-12)

    def test_clamps_to_edges(self):
        s = small_surface()
        assert s.query(2, 50.0) == 0.8
        assert s.query(2, -50.0) == 0.2

    def test_unknown_k_is_an_error(self):
        s = small_surface()
        with pytest.raises(ValueError):
            s.query(4, 5.0)
        with pytest.raises(ValueError):
            s.query(0, 5.0)

    def test_array_query_matches_scalar_queries(self):
        s = small_surface()
        rng = np.random.default_rng(3)
        snrs = rng.uniform(-5, 15, size=(4, 2, 3))
        for k in (1, 2, 3):
            block = s.query(k, snrs)
            assert block.shape == snrs.shape
            for idx in np.ndindex(snrs.shape):
                assert block[idx] == s.query(k, float(snrs[idx]))
        assert type(s.query(2, 5.0)) is float
        with pytest.raises(ValueError):
            s.query(4, snrs)

    def test_monotone_in_snr(self):
        s = small_surface()
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b = np.sort(rng.uniform(-20, 30, 2))
            k = int(rng.integers(1, 4))
            assert s.query(k, a) <= s.query(k, b)

    def test_range_bounds(self):
        s = default_surrogate(10)
        rng = np.random.default_rng(6)
        snrs = rng.uniform(-40, 40, 100)
        vals = np.stack([s.query(k, snrs) for k in s.k_values])
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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SurfaceError):
            SimilaritySurface(np.array([1, 2]), np.array([0.0]), np.array([[0.5]]))


class TestLoad:
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
        assert s.query(2, 5.0) == 0.5

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
        with pytest.raises(SurfaceError, match="line 2"):
            load_surface(p)

    def test_rejects_non_numeric(self, tmp_path):
        p = self.write(tmp_path, "k\\snr,0,5\n1,0.5,abc\n")
        with pytest.raises(SurfaceError):
            load_surface(p)


class TestSurrogate:
    def test_pinned_value(self):
        # amplitude 0.8 at k=1, logistic midpoint at 4 dB
        s = default_surrogate(3)
        assert s.query(1, 4.0) == pytest.approx(0.400, abs=1e-9)

    def test_amplitude_formula(self):
        s = default_surrogate(20)
        for k in (1, 2, 5, 20):
            amp = 1 - 0.2 * np.exp(-0.4 * (k - 1))
            mid = 5.0 - k
            for g in (-10.0, 0.0, 13.0, 20.0):
                expect = amp / (1 + np.exp(-0.3 * (g - mid)))
                assert s.query(k, g) == pytest.approx(expect, rel=1e-12)

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
        assert s.covers_k_range(7)
        assert not s.covers_k_range(8)

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            default_surrogate(0)
