"""Semantic similarity surface: similarity as a function of (k, SNR).

The recovered-sentence similarity of a trained text transceiver depends on
the number of symbols spent per word (k) and the link SNR. That mapping is
consumed here as a lookup grid: rows are discrete k values, columns an SNR
grid in dB, entries the similarity in [0, 1]. Queries interpolate linearly
along the SNR axis only (k is inherently discrete) and clamp to the edge
values outside the grid.

The interpolation is ``np.interp``'s formula, ``slope[j] * (x - grid[j]) +
xi[j]``, with the slopes tabulated once per surface. ``locate`` finds an
SNR array's grid columns once, and ``interpolate`` evaluates any k-row
there. Row k's stretch over one column is a linear piece: ``pieces`` names
them, ``evaluate`` evaluates each SNR on its own piece, so a scan can read
a different k at every SNR, and ``piece_range`` bounds what a piece can
return, so a scan can tell which k are worth reading on a column. The
values equal ``np.interp``'s bit for bit, at the grid ends and at +-inf
too; a NaN SNR gives NaN (``np.interp`` returns the column's value on a
one-column grid).

A measured table can be loaded from CSV; ``default_surrogate`` builds a
deterministic stand-in with the right qualitative shape so the rest of the
pipeline runs without any trained model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import read_lines


class SurfaceError(ValueError):
    """Raised when a similarity table violates the grid contract."""


@dataclass(frozen=True, eq=False)
class SimilaritySurface:
    k_values: np.ndarray  # sorted ints, symbols per word
    snr_grid_db: np.ndarray  # strictly increasing, dB
    xi: np.ndarray  # shape (len(k_values), len(snr_grid_db)), in [0, 1]
    _k_index: dict = field(init=False, repr=False, compare=False)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = np.asarray(self.k_values)
        if k.dtype.kind not in "iuf":
            raise SurfaceError(f"k values must be integers, got {self.k_values!r}")
        fractional = np.flatnonzero(k != np.round(k))  # NaN and +-inf fail too
        if fractional.size:
            raise SurfaceError(f"k values must be integers, got {k[fractional[0]]}")
        k = k.astype(int)
        s = np.asarray(self.snr_grid_db, dtype=float)
        # + 0.0 turns -0.0 entries into 0.0, so 0 * slope + xi at a grid point
        # is the stored entry, sign bit included
        x = np.asarray(self.xi, dtype=float) + 0.0
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "snr_grid_db", s)
        object.__setattr__(self, "xi", x)
        if x.shape != (k.size, s.size):
            raise SurfaceError(
                f"grid shape {x.shape} does not match {k.size} k-rows x {s.size} SNR columns"
            )
        if np.any(np.diff(k) <= 0):
            raise SurfaceError("k values must be strictly increasing")
        if s.size == 0:
            raise SurfaceError("SNR grid must have at least one column")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(x))):
            raise SurfaceError("SNR grid and similarities must be finite")
        with np.errstate(over="ignore"):
            span = s[-1] - s[0]
        if span == np.inf:
            raise SurfaceError(f"SNR grid from {s[0]} dB to {s[-1]} dB is wider than a float")
        if np.any(np.diff(s) <= 0):
            j = int(np.flatnonzero(np.diff(s) <= 0)[0]) + 1
            raise SurfaceError(
                f"SNR grid must be strictly increasing, column {j} ({s[j]} dB) breaks it"
            )
        bad = np.argwhere((x < 0.0) | (x > 1.0))
        if bad.size:
            i, j = bad[0]
            raise SurfaceError(
                f"similarity {x[i, j]} out of [0, 1] at k={k[i]}, snr={s[j]} dB"
            )
        drops = np.argwhere(np.diff(x, axis=1) < 0.0)
        if drops.size:
            i, j = drops[0]
            raise SurfaceError(
                f"similarity decreases along SNR at k={k[i]} between "
                f"{s[j]} dB and {s[j + 1]} dB"
            )
        slope = np.zeros_like(x)
        with np.errstate(over="ignore"):
            slope[:, :-1] = np.diff(x, axis=1) / np.diff(s)
        steep = np.argwhere(slope == np.inf)
        if steep.size:
            i, j = steep[0]
            raise SurfaceError(
                f"similarity slope at k={k[i]} between {s[j]} dB and {s[j + 1]} dB "
                f"overflows a float"
            )
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_k_index", {int(kk): i for i, kk in enumerate(k)})

    def locate(self, snr_db) -> tuple:
        """(grid column j, offset x - grid[j]) of each SNR, clipped to the grid.

        ``snr_db`` may be a scalar or an array of any shape; ``interpolate``
        evaluates any k-row at the result.
        """
        grid = self.snr_grid_db
        x = np.clip(np.asarray(snr_db, dtype=float), grid[0], grid[-1])
        j = grid.searchsorted(x, side="right") - 1
        return j, x - grid.take(j)

    def _row(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        try:
            return self._k_index[int(k)]
        except KeyError:
            raise ValueError(f"k={k} is not tabulated in this surface") from None

    def pieces(self, k_values) -> np.ndarray:
        """Linear pieces of the rows k_values, shape (len(k_values), grid columns).

        Piece [r, j] is row k_values[r] on the SNRs ``locate`` puts in column
        j: from grid[j] up to grid[j + 1], or the last grid point alone.
        ``evaluate`` and ``piece_range`` take these indices.
        """
        rows = np.array([self._row(k) for k in k_values])
        columns = self.snr_grid_db.size
        return rows[:, None] * columns + np.arange(columns)

    def evaluate(self, piece, dx):
        """``slope * dx + xi`` of each linear piece at offset dx past its grid column."""
        return self._slope.take(piece) * dx + self.xi.take(piece)

    def piece_range(self, piece) -> tuple:
        """(least, greatest) value ``evaluate`` returns on each piece's SNRs.

        ``locate`` puts column j's SNRs at offsets dx from 0 up to the float
        grid[j + 1] - grid[j] (0 alone on the last column). The slope is >= 0
        and a rounded product or sum is non-decreasing in each operand, so
        ``evaluate`` is non-decreasing in dx, and its own values at those two
        offsets bound every value it returns there, rounding included.
        """
        widths = np.append(np.diff(self.snr_grid_db), 0.0)
        return self.evaluate(piece, 0.0), self.evaluate(piece, widths.take(piece % widths.size))

    def interpolate(self, k: int, located: tuple):
        """Similarity of row k at SNRs ``locate`` returned, as np.interp computes it."""
        j, dx = located
        return self.evaluate(self._row(k) * self.snr_grid_db.size + j, dx)


def load_surface(path) -> SimilaritySurface:
    """Load a similarity table from CSV.

    Expected layout: first row ``k\\snr, s1, s2, ...`` giving the SNR grid in
    dB; each following row ``k, xi1, xi2, ...``, k an integer (``2`` or
    ``2.0``). UTF-8, decimal points.
    """
    lines = read_lines(path, SurfaceError)
    if len(lines) < 2:
        raise SurfaceError(f"{path}: need a header row and at least one k row")
    lineno, header = lines[0]
    try:
        snr_grid = np.array([float(tok) for tok in header.split(",")[1:]])
    except ValueError as exc:
        raise SurfaceError(f"{path}:{lineno}: bad SNR grid value in header: {exc}") from None
    k_values = []
    rows = []
    for lineno, ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != snr_grid.size + 1:
            raise SurfaceError(f"{path}:{lineno}: {len(toks) - 1} entries, "
                               f"expected {snr_grid.size}")
        try:
            k = float(toks[0])
            rows.append([float(t) for t in toks[1:]])
        except ValueError as exc:
            raise SurfaceError(f"{path}:{lineno}: {exc}") from None
        if not k.is_integer():
            raise SurfaceError(f"{path}:{lineno}: k must be an integer, got {toks[0].strip()!r}")
        k_values.append(int(k))
    try:
        return SimilaritySurface(np.array(k_values), snr_grid, np.array(rows))
    except SurfaceError as exc:
        raise SurfaceError(f"{path}: {exc}") from None


def default_surrogate(k_max: int) -> SimilaritySurface:
    """Deterministic stand-in similarity surface.

    xi(k, g_dB) = A(k) * logistic(0.3 * (g_dB - b(k))) with amplitude
    A(k) = 1 - 0.2*exp(-0.4*(k - 1)) and midpoint b(k) = 5 - k, tabulated
    over k = 1..k_max and g_dB = -10..20 in 1 dB steps. Non-decreasing in
    both k and SNR and saturating below 1, like measured transceiver curves.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=float)
    snr_grid = np.arange(-10.0, 21.0)
    amp = 1.0 - 0.2 * np.exp(-0.4 * (k - 1.0))
    mid = 5.0 - k
    z = 0.3 * (snr_grid[None, :] - mid[:, None])
    xi = amp[:, None] / (1.0 + np.exp(-z))
    return SimilaritySurface(k.astype(int), snr_grid, xi)
