"""Bit-domain link adaptation: Shannon bound and CQI table lookup.

Three conventional baselines are supported: an ideal system operating at
the Shannon limit, an LTE system using the 4-bit CQI efficiencies of 3GPP
TS 36.213 Table 7.2.3-1, and an NR system using 3GPP TS 38.214 Table
5.2.2.1-2 (256-QAM table). The CQI efficiency values ship as CSV data files
transcribed from the standards; SHA-256 hashes of those files are pinned so
a silent edit fails loudly.

SNR-to-CQI thresholds are not part of the 3GPP tables. The built-in 4G
thresholds are the common 15-step linear grid from -6.7 to 22.7 dB; the
built-in 5G thresholds invert the Shannon curve at each entry's efficiency
and add a 1 dB margin, which keeps every entry below capacity at its
switching point. Both are plain data and can be overridden per scenario.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .metrics import read_lines


class SystemKind(enum.Enum):
    SEMANTIC = "semantic"
    IDEAL = "ideal"
    FOUR_G = "4g"
    FIVE_G = "5g"

    @classmethod
    def parse(cls, token: str) -> "SystemKind":
        token = token.strip().lower()
        for kind in cls:
            if kind.value == token:
                return kind
        raise ValueError(
            f"unknown system {token!r}, expected one of "
            f"{[k.value for k in cls]}"
        )


BUILTIN_TABLE_FILES = {
    SystemKind.FOUR_G: "cqi_4g.csv",
    SystemKind.FIVE_G: "cqi_5g.csv",
}

# SHA-256 of the shipped table files; `semse tables --check` re-verifies.
BUILTIN_TABLE_SHA256 = {
    SystemKind.FOUR_G: "7285a35ac36abf259e8c0c01149915fdac8efae961aa1890148c00d6dc67fd29",
    SystemKind.FIVE_G: "af2231621d57eb4f772fdcaeb2c14c4ea66b00c88b7d869631fc7c4dba482c16",
}


class CqiTableError(ValueError):
    """Raised when a CQI table file violates its contract."""


@dataclass(frozen=True, eq=False)
class CqiTable:
    """CQI index -> (efficiency, minimum SNR) mapping, indices 1..15.

    Efficiencies are finite, positive and strictly increasing; thresholds
    are finite and strictly increasing. ``thresholds_db[i]`` is the lowest
    SNR at which index i+1 is selected; below ``thresholds_db[0]`` the link
    is in outage and the SE is 0.
    """

    efficiencies: np.ndarray
    thresholds_db: np.ndarray

    def __post_init__(self) -> None:
        eff = np.asarray(self.efficiencies, dtype=float)
        thr = np.asarray(self.thresholds_db, dtype=float)
        object.__setattr__(self, "efficiencies", eff)
        object.__setattr__(self, "thresholds_db", thr)
        if eff.shape != (15,) or thr.shape != (15,):
            raise CqiTableError(
                f"expected 15 CQI entries, got {eff.size} efficiencies "
                f"and {thr.size} thresholds"
            )
        for column, values, rule, ok in (
            ("efficiency", eff, "finite and > 0", np.isfinite(eff) & (eff > 0)),
            ("threshold_db", thr, "finite", np.isfinite(thr)),
        ):
            if not ok.all():
                i = int(np.argmin(ok))
                raise CqiTableError(f"CQI index {i + 1} {column} must be {rule}, got {values[i]}")
        if np.any(np.diff(eff) <= 0):
            raise CqiTableError("efficiencies must be strictly increasing")
        if np.any(np.diff(thr) <= 0):
            raise CqiTableError("SNR thresholds must be strictly increasing")


def shannon_se(snr_linear):
    """Shannon spectral efficiency log2(1 + snr), in bits/s/Hz."""
    g = np.asarray(snr_linear, dtype=float)
    if np.any(g < 0):
        raise ValueError("snr_linear must be >= 0")
    out = np.log2(1.0 + g)
    return float(out) if out.ndim == 0 else out


def table_se(table: CqiTable, snr_db):
    """Efficiency of the largest CQI index whose threshold is <= snr_db; 0 in outage."""
    idx = np.searchsorted(table.thresholds_db, np.asarray(snr_db, dtype=float), side="right")
    eff = np.concatenate(([0.0], table.efficiencies))
    out = eff[idx]
    return float(out) if out.ndim == 0 else out


def load_cqi_table(path) -> CqiTable:
    """Load a CQI table CSV with header ``index,efficiency,threshold_db``."""
    lines = read_lines(path, CqiTableError)
    lineno, header = lines[0] if lines else (1, "")
    if header.replace(" ", "") != "index,efficiency,threshold_db":
        raise CqiTableError(f"{path}:{lineno}: expected header 'index,efficiency,threshold_db'")
    eff, thr = [], []
    for expected_idx, (lineno, ln) in enumerate(lines[1:], start=1):
        toks = [t.strip() for t in ln.split(",")]
        if len(toks) != 3:
            raise CqiTableError(f"{path}:{lineno}: expected 3 columns")
        try:
            idx, e, t = int(toks[0]), float(toks[1]), float(toks[2])
        except ValueError as exc:
            raise CqiTableError(f"{path}:{lineno}: {exc}") from None
        if idx != expected_idx:
            raise CqiTableError(f"{path}:{lineno}: index {idx}, expected {expected_idx}: "
                                "rows must be 1..15 in order")
        eff.append(e)
        thr.append(t)
    try:
        return CqiTable(np.array(eff), np.array(thr))
    except CqiTableError as exc:
        raise CqiTableError(f"{path}: {exc}") from None


def _builtin_bytes(system: SystemKind) -> bytes:
    name = BUILTIN_TABLE_FILES[system]
    return resources.files("semse.data").joinpath(name).read_bytes()


@functools.cache
def builtin_table(system: SystemKind) -> CqiTable:
    """The shipped table for FOUR_G or FIVE_G, parsed once per process.

    Every call returns the same table; its arrays are read-only.
    """
    if system not in BUILTIN_TABLE_FILES:
        raise ValueError(f"no builtin CQI table for {system}")
    name = BUILTIN_TABLE_FILES[system]
    with resources.as_file(resources.files("semse.data").joinpath(name)) as p:
        table = load_cqi_table(p)
    table.efficiencies.flags.writeable = False
    table.thresholds_db.flags.writeable = False
    return table


def check_builtin_tables() -> list[str]:
    """Verify shipped table hashes and invariants; returns report lines.

    Raises CqiTableError on any mismatch.
    """
    import hashlib  # only this check needs it; keeps it out of the CLI's start-up
    report = []
    for system, expected in BUILTIN_TABLE_SHA256.items():
        digest = hashlib.sha256(_builtin_bytes(system)).hexdigest()
        if digest != expected:
            raise CqiTableError(
                f"{BUILTIN_TABLE_FILES[system]}: SHA-256 {digest} does not match "
                f"pinned {expected}"
            )
        table = builtin_table(system)
        for i, (eff, thr) in enumerate(
            zip(table.efficiencies, table.thresholds_db), start=1
        ):
            cap = shannon_se(10.0 ** (thr / 10.0))
            if eff > cap:
                raise CqiTableError(
                    f"{BUILTIN_TABLE_FILES[system]}: CQI {i} efficiency {eff} exceeds "
                    f"capacity {cap:.4f} at its threshold {thr} dB"
                )
        report.append(
            f"{BUILTIN_TABLE_FILES[system]}: sha256 ok, 15 entries, "
            f"max {table.efficiencies[-1]:.4f} bits/s/Hz"
        )
    return report
