"""Bring a workload's fields to the state its calls need.

Run as a script in a fresh interpreter, this is the set-up that
``setup_s`` times: start Python, import maxcurves, and build every field
the workload touches.  Its argument is the JSON list of
``[t, level, embed]`` triples.  Run this way, the package is compiled
from source whatever bytecode lies beside it, as on every start under
``PYTHONDONTWRITEBYTECODE=1``, while the standard library loads from its
caches as usual.
"""

import json
import sys
from importlib.machinery import FileFinder, SourceFileLoader
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


class SourceOnlyLoader(SourceFileLoader):
    def get_code(self, fullname):
        return compile(self.get_data(self.path), self.path, "exec", dont_inherit=True)


def source_only_hook(path: str) -> FileFinder:
    if not path.startswith(SRC):
        raise ImportError("not under src")
    return FileFinder(path, (SourceOnlyLoader, [".py"]))


def set_up(field_list) -> None:
    """Make each field and do its first multiplication, which builds the
    log/antilog tables where m <= 16; where embed is set, also build the
    embedding of GF(q^2), as the first level-2 evaluation would."""
    from maxcurves import fields

    for t, level, embed in field_list:
        fld = fields.make_field(t, level)
        fld.mul_int(1, 1)
        if embed:
            fld.embed(fields.make_field(t).one)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path_hooks.insert(0, source_only_hook)
    sys.path.insert(0, SRC)
    set_up(json.loads(sys.argv[1]))
