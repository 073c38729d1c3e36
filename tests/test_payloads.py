"""Recorded CLI payloads: seeded stdout and exit codes must not drift.

``data/payloads.json`` holds, for each command, its argv, the exact
stdout and the exit code it produced when recorded.  A refactor that
claims identical outputs must keep every entry byte for byte; a change
that alters a payload on purpose edits the entry and says why.

``data/normalize.json`` pins the coordinate-change arithmetic, which no
entry of ``payloads.json`` reaches.  Its ``normalize`` entries are trace
curves moved by seeded records at t = 2..5, each with a_t != 1 and a
nonzero constant, in the trace-form and trace-form-extended families:
the moved curve's JSON and the exact stdout of ``normalize --file`` on
it.  Its ``curve_errors`` entries are documents that ``curve_from_json``
refuses, with the exact error text.
"""

import difflib
import json
from pathlib import Path

import pytest

from maxcurves.cli import main
from maxcurves.curves import CoordinateChange, apply_record, curve_from_json, trace_curve
from maxcurves.fields import make_field

DATA = Path(__file__).parent / "data"
RECORDED = json.loads((DATA / "payloads.json").read_text())
NORMALIZE = json.loads((DATA / "normalize.json").read_text())


def _lines(text: str) -> list[str]:
    """One key per line for a JSON payload, so a diff names the field."""
    try:
        return json.dumps(json.loads(text), indent=1, sort_keys=True).splitlines()
    except json.JSONDecodeError:
        return text.splitlines()


@pytest.mark.parametrize("entry", RECORDED, ids=lambda e: " ".join(e["argv"]))
def test_payload_is_unchanged(capsys, entry):
    code = main(entry["argv"])
    out = capsys.readouterr().out
    if out != entry["stdout"]:
        diff = difflib.unified_diff(
            _lines(entry["stdout"]), _lines(out), "recorded", "now", lineterm=""
        )
        pytest.fail("stdout differs:\n" + "\n".join(diff))
    assert code == entry["exit"]


@pytest.mark.parametrize(
    "entry", NORMALIZE["normalize"], ids=lambda e: f"t={e['t']} {e['family']}"
)
def test_normalize_payload_is_unchanged(capsys, tmp_path, entry):
    fld = make_field(entry["t"])
    record = [CoordinateChange(d["kind"], fld.from_hex(d["constant"])) for d in entry["record"]]
    moved = apply_record(trace_curve(entry["t"]), record)
    assert json.dumps(moved.to_json()) == json.dumps(entry["input"])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(entry["input"]))
    code = main(["normalize", "--file", str(path)])
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit"]


@pytest.mark.parametrize("entry", NORMALIZE["curve_errors"], ids=lambda e: e["error"])
def test_curve_json_error_text_is_unchanged(entry):
    with pytest.raises(ValueError) as excinfo:
        curve_from_json(entry["document"])
    assert str(excinfo.value) == entry["error"]
