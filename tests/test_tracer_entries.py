"""Every library name the benchmark tracer wraps still exists.

`bench/tracer.py` wraps the entries of its `ENTRIES` table from outside
the library and silently lists a missing one as absent, so a rename or a
deletion would drop that layer's metrics without an error.  The module
is loaded without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# entries known to be absent from the library
KNOWN_ABSENT = [("shuffle", "sh_antipode_closed")]


def _load_entries():
    spec = importlib.util.spec_from_file_location("liequant_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ENTRIES


def _resolves(modname, path):
    obj = importlib.import_module("liequant." + modname)
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return True


def test_traced_entries_resolve():
    entries = _load_entries()
    assert len(entries) > 40
    missing = [(m, path) for m, path, *_ in entries if not _resolves(m, path)]
    assert missing == KNOWN_ABSENT
