import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semse.cli import main
from semse.link_adaptation import (
    BUILTIN_TABLE_SHA256,
    CqiTable,
    CqiTableError,
    SystemKind,
    builtin_table,
    check_builtin_tables,
    load_cqi_table,
    shannon_se,
    table_se,
)

# the CQI table checks compare against references computed in the same
# process, not pinned bytes, so they run at the oldest supported numpy
pytestmark = pytest.mark.numpy_floor

# transcription oracles: 3GPP TS 36.213 Table 7.2.3-1 and TS 38.214 Table 5.2.2.1-2
LTE_EFFICIENCIES = [
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
]
NR_EFFICIENCIES = [
    0.1523, 0.3770, 0.8770, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547, 6.2266, 6.9141, 7.4063,
]


def test_shannon_limits():
    assert shannon_se(0.0) == 0.0
    assert shannon_se(1.0) == 1.0
    assert shannon_se(29.27) == pytest.approx(4.920, abs=1e-3)


def test_shannon_rejects_negative():
    with pytest.raises(ValueError):
        shannon_se(-0.1)


def test_lte_transcription():
    table = builtin_table(SystemKind.FOUR_G)
    assert list(table.efficiencies) == LTE_EFFICIENCIES
    thresholds = [round(-6.7 + 2.1 * i, 1) for i in range(15)]
    assert list(table.thresholds_db) == thresholds


def test_nr_transcription():
    table = builtin_table(SystemKind.FIVE_G)
    assert list(table.efficiencies) == NR_EFFICIENCIES


def test_builtin_hashes_pinned():
    report = check_builtin_tables()
    assert len(report) == len(BUILTIN_TABLE_SHA256) == 2


@pytest.mark.parametrize("system", [SystemKind.FOUR_G, SystemKind.FIVE_G])
def test_builtin_table_is_parsed_once_and_read_only(system):
    table = builtin_table(system)
    assert builtin_table(system) is table
    for values in (table.efficiencies, table.thresholds_db):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_cqi_selection_rules():
    table = builtin_table(SystemKind.FOUR_G)
    assert table_se(table, table.thresholds_db[0] - 0.01) == 0.0
    assert table_se(table, float(table.thresholds_db[6])) == table.efficiencies[6]  # inclusive
    assert table_se(table, table.thresholds_db[-1] + 50.0) == table.efficiencies[14]


def test_threshold_requantization_is_idempotent():
    for system in (SystemKind.FOUR_G, SystemKind.FIVE_G):
        table = builtin_table(system)
        for thr, eff in zip(table.thresholds_db, table.efficiencies):
            assert table_se(table, float(thr)) == eff


def test_table_se_values():
    lte = builtin_table(SystemKind.FOUR_G)
    nr = builtin_table(SystemKind.FIVE_G)
    assert table_se(lte, float(lte.thresholds_db[0])) == 0.1523
    assert table_se(lte, 100.0) == 5.5547
    assert table_se(nr, 100.0) == 7.4063
    assert table_se(lte, -40.0) == 0.0


def test_table_se_is_nondecreasing_step():
    for system in (SystemKind.FOUR_G, SystemKind.FIVE_G):
        table = builtin_table(system)
        grid = np.arange(-20.0, 40.0, 0.05)
        se = table_se(table, grid)
        assert np.all(np.diff(se) >= 0)


def test_default_tables_stay_below_capacity():
    # sanity check of the shipped thresholds: at and hence above each
    # switching point the selected efficiency is below log2(1 + snr)
    for system in (SystemKind.FOUR_G, SystemKind.FIVE_G):
        table = builtin_table(system)
        for eff, thr in zip(table.efficiencies, table.thresholds_db):
            assert eff <= shannon_se(10 ** (thr / 10))
        grid = np.arange(-20.0, 60.0, 0.1)
        assert np.all(table_se(table, grid) <= shannon_se(10 ** (grid / 10)) + 1e-12)


def test_nr_dominates_lte_at_saturation():
    lte = builtin_table(SystemKind.FOUR_G)
    nr = builtin_table(SystemKind.FIVE_G)
    assert table_se(nr, 60.0) > table_se(lte, 60.0)


def test_table_se_vectorized_matches_scalar():
    table = builtin_table(SystemKind.FIVE_G)
    grid = np.linspace(-15, 30, 91)
    vec = table_se(table, grid)
    assert vec.shape == grid.shape
    for g, v in zip(grid, vec):
        assert table_se(table, float(g)) == v


def increasing(lo, hi):
    """15 strictly increasing floats in [lo, hi]."""
    return st.lists(st.floats(lo, hi), min_size=15, max_size=15, unique=True).map(sorted)


@settings(deadline=None)
@given(increasing(1e-6, 20.0), increasing(-50.0, 50.0))
def test_repr_written_table_reads_back_equal(efficiencies, thresholds):
    lines = ["index,efficiency,threshold_db"]
    lines += [f"{i},{e!r},{t!r}" for i, (e, t) in enumerate(zip(efficiencies, thresholds), 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = load_cqi_table(path)
    assert np.array_equal(table.efficiencies, efficiencies)
    assert np.array_equal(table.thresholds_db, thresholds)


def test_load_cqi_table_round_trip(tmp_path):
    p = tmp_path / "table.csv"
    lines = ["index,efficiency,threshold_db"]
    lines += [f"{i},{e},{i - 8}" for i, e in enumerate(LTE_EFFICIENCIES, start=1)]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = load_cqi_table(p)
    assert list(table.efficiencies) == LTE_EFFICIENCIES
    assert list(table.thresholds_db) == list(range(-7, 8))


@pytest.mark.parametrize(
    "body",
    [
        "bad,header,row\n1,0.1,0\n",
        "index,efficiency,threshold_db\n2,0.1,0\n",  # wrong start index
        "index,efficiency,threshold_db\n1,0.1\n",  # missing column
        "index,efficiency,threshold_db\n1,xyz,0\n",
    ],
)
def test_load_cqi_table_rejects_malformed(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(CqiTableError):
        load_cqi_table(p)


def test_cqi_table_invariants():
    eff = np.array(LTE_EFFICIENCIES)
    thr = np.arange(15.0)
    with pytest.raises(CqiTableError):
        CqiTable(eff[:10], thr[:10])
    bad_eff = eff.copy()
    bad_eff[5] = bad_eff[4]
    with pytest.raises(CqiTableError):
        CqiTable(bad_eff, thr)
    bad_thr = thr.copy()
    bad_thr[3] = bad_thr[2]
    with pytest.raises(CqiTableError):
        CqiTable(eff, bad_thr)


@pytest.mark.parametrize("key, column, index, value", [
    ("cqi_4g", "threshold_db", 8, "nan"),
    ("cqi_4g", "efficiency", 8, "nan"),
    ("cqi_4g", "efficiency", 1, "-0.5"),
    ("cqi_4g", "efficiency", 15, "inf"),
    ("cqi_5g", "threshold_db", 3, "-inf"),
])
def test_run_rejects_non_finite_or_non_positive_cqi_entry(
    tmp_path, capsys, key, column, index, value
):
    # loaded, a NaN threshold shifts the 4g mean with exit 0, and +inf fails
    # later in the matcher with an error that names no key
    system = SystemKind.FOUR_G if key == "cqi_4g" else SystemKind.FIVE_G
    table = builtin_table(system)
    lines = ["index,efficiency,threshold_db"]
    for i, (e, t) in enumerate(zip(table.efficiencies, table.thresholds_db), start=1):
        cells = {"efficiency": repr(float(e)), "threshold_db": repr(float(t))}
        if i == index:
            cells[column] = value
        lines.append(f"{i},{cells['efficiency']},{cells['threshold_db']}")
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        f"n_drops = 3\nsystems = {system.value}\n{key} = {tmp_path / 'table.csv'}\n",
        encoding="utf-8",
    )
    assert main(["run", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert f"CQI index {index} {column} must be finite" in err


def test_system_kind_parse():
    assert SystemKind.parse(" Semantic ") is SystemKind.SEMANTIC
    assert SystemKind.parse("4g") is SystemKind.FOUR_G
    with pytest.raises(ValueError):
        SystemKind.parse("6g")
