"""Recorded CLI payloads: seeded stdout and exit codes must not drift.

``data/payloads.json`` holds, for each command, its argv, the exact
stdout and the exit code it produced when recorded.  A refactor that
claims identical outputs must keep every entry byte for byte; a change
that alters a payload on purpose edits the entry and says why.
"""

import difflib
import json
from pathlib import Path

import pytest

from maxcurves.cli import main

RECORDED = json.loads((Path(__file__).parent / "data" / "payloads.json").read_text())


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
