"""Every library name the benchmark tracer wraps still exists.

`bench/tracer.py` wraps the entries of its `ENTRIES` table from outside
the library and silently lists a missing one as absent, so a rename or a
deletion would drop that layer's metrics without an error.  Each entry
is resolved by the tracer's own `_resolve`, which takes a class's
method from the class's own namespace, so a method a class only
inherits counts as absent here as it does in a trace.  The module is
loaded without installing the tracer.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# entries known to be absent from the library
KNOWN_ABSENT = [("shuffle", "sh_antipode_closed")]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("liequant_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_entries_resolve():
    tracer = _load_tracer()
    assert len(tracer.ENTRIES) > 40
    missing = [(m, path) for m, path, *_ in tracer.ENTRIES
               if tracer._resolve(m, path) is None]
    assert missing == KNOWN_ABSENT
