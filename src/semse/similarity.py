"""Semantic similarity surface: similarity as a function of (k, SNR).

The recovered-sentence similarity of a trained text transceiver depends on
the number of symbols spent per word (k) and the link SNR. That mapping is
consumed here as a lookup grid: rows are discrete k values, columns an SNR
grid in dB, entries the similarity in [0, 1]. Queries interpolate linearly
along the SNR axis only (k is inherently discrete) and clamp to the edge
values outside the grid.

A measured table can be loaded from CSV; ``default_surrogate`` builds a
deterministic stand-in with the right qualitative shape so the rest of the
pipeline runs without any trained model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SurfaceError(ValueError):
    """Raised when a similarity table violates the grid contract."""


@dataclass(frozen=True, eq=False)
class SimilaritySurface:
    k_values: np.ndarray  # sorted ints, symbols per word
    snr_grid_db: np.ndarray  # strictly increasing, dB
    xi: np.ndarray  # shape (len(k_values), len(snr_grid_db)), in [0, 1]
    _k_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = np.asarray(self.k_values, dtype=int)
        s = np.asarray(self.snr_grid_db, dtype=float)
        x = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "snr_grid_db", s)
        object.__setattr__(self, "xi", x)
        if x.shape != (k.size, s.size):
            raise SurfaceError(
                f"grid shape {x.shape} does not match {k.size} k-rows x {s.size} SNR columns"
            )
        if np.any(np.diff(k) <= 0):
            raise SurfaceError("k values must be strictly increasing")
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
        object.__setattr__(self, "_k_index", {int(kk): i for i, kk in enumerate(k)})

    def query(self, k: int, snr_db):
        """Similarity of row k at snr_db; k must be tabulated exactly.

        ``snr_db`` may be a scalar, giving a float, or an array of any shape,
        giving an array of that shape from one interpolation of the row.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        try:
            row = self._k_index[int(k)]
        except KeyError:
            raise ValueError(f"k={k} is not tabulated in this surface") from None
        out = np.interp(snr_db, self.snr_grid_db, self.xi[row])
        return float(out) if out.ndim == 0 else out

    def covers_k_range(self, k_max: int) -> bool:
        return all(k in self._k_index for k in range(1, k_max + 1))


def load_surface(path) -> SimilaritySurface:
    """Load a similarity table from CSV.

    Expected layout: first row ``k\\snr, s1, s2, ...`` giving the SNR grid in
    dB; each following row ``k, xi1, xi2, ...``. UTF-8, decimal points.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise SurfaceError(f"{path}: need a header row and at least one k row")
    header = lines[0].split(",")
    try:
        snr_grid = np.array([float(tok) for tok in header[1:]])
    except ValueError as exc:
        raise SurfaceError(f"{path}: bad SNR grid value in header: {exc}") from None
    k_values = []
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        toks = ln.split(",")
        if len(toks) != snr_grid.size + 1:
            raise SurfaceError(
                f"{path}: line {lineno} has {len(toks) - 1} entries, "
                f"expected {snr_grid.size}"
            )
        try:
            k_values.append(int(float(toks[0])))
            rows.append([float(t) for t in toks[1:]])
        except ValueError as exc:
            raise SurfaceError(f"{path}: line {lineno}: {exc}") from None
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
