import dataclasses

import numpy as np
import pytest

from semse.harness import load_scenario
from semse.link_adaptation import SystemKind, builtin_table, load_cqi_table
from semse.metrics import SourceStats, TransformFactor
from semse.similarity import load_surface


def test_validation():
    with pytest.raises(ValueError):
        SourceStats(0.0)
    with pytest.raises(ValueError):
        TransformFactor(-1.0)


_LTE = builtin_table(SystemKind.FOUR_G)
# {format: (loader, lines of a valid file, index of the line made bad, that bad line)}
FILE_FORMATS = {
    "scenario": (load_scenario, ["n_drops = 3", "n_users = 4", "bits_per_word = 20"],
                 2, "bits_per_word = x20"),
    "surface": (load_surface, ["k\\snr,0,10", "1,0.2,0.9", "2,0.3,0.95"], 2, "2,0.3,x20"),
    "cqi": (load_cqi_table, ["index,efficiency,threshold_db"] + [
        f"{i},{e!r},{t!r}" for i, (e, t) in
        enumerate(zip(_LTE.efficiencies.tolist(), _LTE.thresholds_db.tolist()), start=1)],
        6, "6,1.1758,x20"),
}


def encode(lines, variant, before):
    """Bytes of ``lines`` as ``variant`` saves them; "blank" adds a line before ``before``."""
    if variant == "blank":
        lines = lines[:before] + [""] + lines[before:]
    end = "\r\n" if variant == "crlf" else "\n"
    text = end.join(lines) + end
    return (("\ufeff" if variant == "bom" else "") + text).encode("utf-8")


def fields_of(loaded):
    return [getattr(loaded, f.name) for f in dataclasses.fields(loaded) if f.compare]


@pytest.mark.parametrize("variant", ["bom", "crlf", "blank"])
@pytest.mark.parametrize("name", list(FILE_FORMATS))
def test_each_file_format_reads_a_bom_crlf_and_blank_lines(tmp_path, name, variant):
    # a BOM was read as part of a scenario's first key or a CQI header, and a
    # surface or CQI error counted only the non-blank lines before it
    loader, lines, bad, bad_line = FILE_FORMATS[name]
    plain, saved = tmp_path / "plain.txt", tmp_path / "saved.txt"
    plain.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
    saved.write_bytes(encode(lines, variant, bad))
    expect, got = fields_of(loader(plain)), fields_of(loader(saved))
    assert len(got) == len(expect) and all(map(np.array_equal, got, expect))

    saved.write_bytes(encode(lines[:bad] + [bad_line] + lines[bad + 1:], variant, bad))
    line = bad + 1 + (variant == "blank")
    with pytest.raises(ValueError) as info:
        loader(saved)
    assert str(info.value).startswith(f"{saved}:{line}: ")
    assert str(info.value).endswith("could not convert string to float: 'x20'")
