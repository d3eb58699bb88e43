"""Per-layer tracing of one liequant CLI job, from outside the library.

`Tracer.install()` wraps the entries listed in `ENTRIES` in place: module
functions in every `liequant.*` namespace that holds the same function
object, methods under every class attribute name bound to that function
(so `__radd__ = __add__` style aliases are covered).  Nothing inside the
library changes.

Two kinds of wrapper:

* SPAN entries (stage boundaries) record one span each, with its parent
  span id, kept in memory and returned by `Tracer.report()`;
* HOT entries (arithmetic, products, canonical forms, elimination) only
  accumulate counts and times.

Both kinds keep a call stack, so every entry gets a self time that
excludes the time spent in wrapped callees; the self times of all
entries sum to at most the duration of the outermost call.  Bookkeeping
done by hooks (pair counts, cache-key sets) is kept out of every self
time.  An entry that is missing from the library (renamed or removed)
is listed under "absent" and its metrics are left out, never an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

SPAN, HOT, COUNT = "span", "hot", "count"

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def add(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value

    def as_dict(self):
        out = {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s}
        out.update(self.extra)
        return out


# -- hooks: bookkeeping run outside the timed interval -----------------------

def _hseries_mul(tracer, stat, args, result):
    """Count products of two nonzero series, and those truncating to 0."""
    a, b = args
    if result is NotImplemented or not a or not b:
        return
    stat.add("nonzero_pairs", 1)
    if not result:
        stat.add("truncated", 1)


def _tensor_pairs(tracer, stat, args):
    """Term pairs of ShTensor.mul, and those whose hbar valuations add
    up past the truncation order (their product truncates to zero)."""
    a, b = args
    order = a.ctx.order
    hist = [0] * (order + 2)
    for c in b.terms.values():
        hist[min(c.valuation(), order + 1)] += 1
    # suffix[k] = number of right-hand terms with valuation >= k
    suffix = [0] * (order + 3)
    for k in range(order + 1, -1, -1):
        suffix[k] = suffix[k + 1] + hist[k]
    past = 0
    for c in a.terms.values():
        need = order + 1 - c.valuation()
        past += suffix[max(need, 0)]
    stat.add("pairs", len(a.terms) * len(b.terms))
    stat.add("past_order", past)


def _word_mul_key(tracer, stat, args):
    """A call is a hit when its (context, word pair) key was seen before."""
    ctx, wa, wb = args
    seen = tracer.word_keys.get(ctx)
    if seen is None:
        seen = tracer.word_keys[ctx] = set()
    if (wa, wb) in seen:
        stat.add("hits", 1)
    else:
        seen.add((wa, wb))


def _terms_in(tracer, stat, args):
    stat.add("terms_in", len(args[0].terms))


def _terms_out(tracer, stat, args, result):
    stat.add("terms_out", len(result.terms))


def _rref_entries(tracer, stat, args):
    rows, ncols = args[0], args[1]
    stat.add("entries", len(rows) * ncols)


def _kernel_dim(tracer, stat, args, result):
    stat.add("dim", len(result))


def _phi_degree(args, kwargs):
    n = kwargs["N"] if "N" in kwargs else args[2]
    return "universal.phi_N.N%d" % n


# (module, attribute path, stat key, kind, options).  Entries without a
# metric of their own are there so their time counts as self time of
# their own layer rather than of the caller's.
ENTRIES = [
    ("cli", "main", "cli.main", SPAN, {}),
    # scalars: every HSeries operator feeds one stat
    ("scalars", "HSeries.__init__", "scalars.HSeries.init", COUNT, {}),
    ("scalars", "HSeries.__add__", "scalars.HSeries", HOT, {}),
    ("scalars", "HSeries.__neg__", "scalars.HSeries", HOT, {}),
    ("scalars", "HSeries.__sub__", "scalars.HSeries", HOT, {}),
    ("scalars", "HSeries.__rsub__", "scalars.HSeries", HOT, {}),
    ("scalars", "HSeries.__mul__", "scalars.HSeries", HOT,
     {"post": _hseries_mul, "post_key": "scalars.mul"}),
    ("scalars", "HSeries.__truediv__", "scalars.HSeries", HOT, {}),
    ("scalars", "HSeries.inverse", "scalars.HSeries", HOT, {}),
    ("scalars", "HSeries.shift", "scalars.HSeries", HOT, {}),
    # shuffle
    ("shuffle", "ShTensor.mul", "shuffle.ShTensor.mul", HOT, {"pre": _tensor_pairs}),
    ("shuffle", "sh_mul", "shuffle.sh_mul", HOT, {}),
    ("shuffle", "ShContext.word_mul", "shuffle.word_mul", HOT, {"pre": _word_mul_key}),
    ("shuffle", "sh_antipode", "shuffle.sh_antipode", HOT, {}),
    ("shuffle", "sh_antipode_closed", "shuffle.sh_antipode_closed", HOT, {}),
    ("shuffle", "sh_comul", "shuffle.sh_comul", HOT, {}),
    ("shuffle", "t_comul", "shuffle.t_comul", HOT, {}),
    ("shuffle", "hopf_report", "shuffle.hopf_report", SPAN, {}),
    # unitensor
    ("unitensor", "canonical", "unitensor.canonical", HOT,
     {"pre": _terms_in, "post": _terms_out}),
    ("unitensor", "u_mul", "unitensor.u_mul", HOT, {}),
    ("unitensor", "instantiate_tensor", "unitensor.instantiate_tensor", HOT, {}),
    ("unitensor", "normalize_letters", "unitensor.normalize_letters", HOT, {}),
    # universal
    ("universal", "cohomology_dims", "universal.cohomology_dims", SPAN, {}),
    ("universal", "solve_varrho", "universal.solve_varrho", SPAN, {}),
    ("universal", "phi_N", "universal.phi_N", SPAN, {"key": _phi_degree}),
    ("universal", "delta3", "universal.delta3", SPAN, {}),
    ("universal", "delta4", "universal.delta4", SPAN, {}),
    ("universal", "normal_order", "universal.normal_order", HOT, {"post": _terms_out}),
    ("universal", "basis_F", "universal.basis_F", HOT, {}),
    ("universal", "basis_F3lie", "universal.basis_F3lie", HOT, {}),
    ("universal", "univ_qybe_residual", "universal.univ_qybe_residual", HOT, {}),
    ("universal", "instantiate", "universal.instantiate", HOT, {}),
    # linalg
    ("linalg", "rref", "linalg.rref", HOT, {"pre": _rref_entries}),
    ("linalg", "nullspace", "linalg.nullspace", HOT, {"post": _kernel_dim}),
    # freealg
    ("freealg", "lie_bracket", "freealg.lie_bracket", HOT, {}),
    ("freealg", "substitute", "freealg.substitute", HOT, {}),
    ("freealg", "assoc_to_lie", "freealg.assoc_to_lie", HOT, {}),
    ("freealg", "LiePoly.expand", "freealg.LiePoly.expand", HOT, {}),
    ("freealg", "AssocPoly.__mul__", "freealg.AssocPoly.mul", HOT, {}),
    # bfamily
    ("bfamily", "solve_bfamily", "bfamily.solve_bfamily", SPAN, {}),
    ("bfamily", "assoc_residual", "bfamily.assoc_residual", HOT, {}),
    ("bfamily", "BFamily.eval", "bfamily.BFamily.eval", HOT, {}),
    # rmatrix
    ("rmatrix", "lambda_table", "rmatrix.lambda_table", HOT, {}),
    ("rmatrix", "LambdaTable.__init__", "rmatrix.LambdaTable.init", COUNT, {}),
    # liealg
    ("liealg", "build_double", "liealg.build_double", HOT, {}),
    ("liealg", "bialgebra_from_json", "liealg.bialgebra_from_json", HOT, {}),
    # quantize
    ("quantize", "Quantization.__init__", "quantize.Quantization.init", SPAN, {}),
    ("quantize", "Quantization.check_qybe", "quantize.check_qybe", SPAN, {}),
    ("quantize", "Quantization.extract_relations", "quantize.extract_relations", SPAN, {}),
    ("quantize", "Quantization.ell", "quantize.ell", HOT, {}),
    ("quantize", "Quantization.semiclassical_check", "quantize.semiclassical_check", SPAN, {}),
]

LAYERS = ("scalars", "shuffle", "unitensor", "universal", "linalg", "freealg",
          "bfamily", "rmatrix", "liealg", "quantize", "cli")


def _ratio(num, den):
    return num / den if den else 0.0


# metric name -> function of the stats dict (stat key -> Stat.as_dict())
def _field(key, field):
    return lambda s: s[key].get(field, 0) if key in s else None


def _share(key, num, den):
    return lambda s: _ratio(s[key].get(num, 0), s[key].get(den, 0)) if key in s else None


def _layer_self(layer):
    return lambda s: sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer)


METRICS = {
    "scalars.HSeries.calls": _field("scalars.HSeries", "calls"),
    "scalars.HSeries.self_s": _field("scalars.HSeries", "self_s"),
    "scalars.HSeries.init_calls": _field("scalars.HSeries.init", "calls"),
    "scalars.mul.truncated_ratio": _share("scalars.mul", "truncated", "nonzero_pairs"),
    "shuffle.ShTensor.mul.calls": _field("shuffle.ShTensor.mul", "calls"),
    "shuffle.ShTensor.mul.self_s": _field("shuffle.ShTensor.mul", "self_s"),
    "shuffle.ShTensor.mul.pairs": _field("shuffle.ShTensor.mul", "pairs"),
    "shuffle.ShTensor.mul.past_order_ratio": _share("shuffle.ShTensor.mul", "past_order", "pairs"),
    "shuffle.sh_mul.calls": _field("shuffle.sh_mul", "calls"),
    "shuffle.sh_mul.self_s": _field("shuffle.sh_mul", "self_s"),
    "shuffle.word_mul.calls": _field("shuffle.word_mul", "calls"),
    "shuffle.word_mul.hit_ratio": _share("shuffle.word_mul", "hits", "calls"),
    "shuffle.sh_antipode.self_s": _field("shuffle.sh_antipode", "self_s"),
    "shuffle.sh_comul.self_s": _field("shuffle.sh_comul", "self_s"),
    "unitensor.canonical.calls": _field("unitensor.canonical", "calls"),
    "unitensor.canonical.self_s": _field("unitensor.canonical", "self_s"),
    "unitensor.canonical.terms_in": _field("unitensor.canonical", "terms_in"),
    "unitensor.canonical.terms_out": _field("unitensor.canonical", "terms_out"),
    "unitensor.u_mul.self_s": _field("unitensor.u_mul", "self_s"),
    "unitensor.instantiate_tensor.self_s": _field("unitensor.instantiate_tensor", "self_s"),
    "universal.delta3.s": _field("universal.delta3", "total_s"),
    "universal.delta4.s": _field("universal.delta4", "total_s"),
    "universal.normal_order.self_s": _field("universal.normal_order", "self_s"),
    "universal.normal_order.terms_out": _field("universal.normal_order", "terms_out"),
    "universal.basis_F.s": _field("universal.basis_F", "total_s"),
    "universal.basis_F3lie.s": _field("universal.basis_F3lie", "total_s"),
    "universal.phi_N.N3_s": _field("universal.phi_N.N3", "total_s"),
    "universal.phi_N.N4_s": _field("universal.phi_N.N4", "total_s"),
    "universal.solve_varrho.s": _field("universal.solve_varrho", "total_s"),
    "linalg.rref.calls": _field("linalg.rref", "calls"),
    "linalg.rref.self_s": _field("linalg.rref", "self_s"),
    "linalg.rref.entries": _field("linalg.rref", "entries"),
    "linalg.nullspace.dim": _field("linalg.nullspace", "dim"),
    "freealg.lie_bracket.calls": _field("freealg.lie_bracket", "calls"),
    "freealg.lie_bracket.self_s": _field("freealg.lie_bracket", "self_s"),
    "freealg.substitute.self_s": _field("freealg.substitute", "self_s"),
    "freealg.AssocPoly.mul.calls": _field("freealg.AssocPoly.mul", "calls"),
    "bfamily.solve_bfamily.s": _field("bfamily.solve_bfamily", "total_s"),
    "bfamily.assoc_residual.calls": _field("bfamily.assoc_residual", "calls"),
    "bfamily.assoc_residual.self_s": _field("bfamily.assoc_residual", "self_s"),
    "bfamily.BFamily.eval.calls": _field("bfamily.BFamily.eval", "calls"),
    "rmatrix.lambda_table.s": _field("rmatrix.lambda_table", "total_s"),
    "rmatrix.LambdaTable.builds": _field("rmatrix.LambdaTable.init", "calls"),
    "liealg.build_double.s": _field("liealg.build_double", "total_s"),
    "liealg.bialgebra_from_json.s": _field("liealg.bialgebra_from_json", "total_s"),
    "quantize.Quantization.init_s": _field("quantize.Quantization.init", "total_s"),
    "quantize.check_qybe.s": _field("quantize.check_qybe", "total_s"),
    "quantize.extract_relations.s": _field("quantize.extract_relations", "total_s"),
    "quantize.ell.calls": _field("quantize.ell", "calls"),
    "quantize.ell.self_s": _field("quantize.ell", "self_s"),
    "quantize.semiclassical_check.s": _field("quantize.semiclassical_check", "total_s"),
    "cli.main.s": _field("cli.main", "total_s"),
}
METRICS.update({"%s.self_s" % layer: _layer_self(layer) for layer in LAYERS})

# the phi_N stat key depends on the call; its metrics exist once any
# phi_N call was seen, and read 0 for degrees never solved
_KEYED = {"universal.phi_N": ("universal.phi_N.N3", "universal.phi_N.N4")}


def _resolve(modname, path):
    """(owner object, attribute name, function) or None when absent."""
    try:
        owner = importlib.import_module("liequant." + modname)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(name)
    else:
        fn = getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn


class Tracer:
    """Install with `install()`, run the job, read `report()`."""

    def __init__(self, entries=ENTRIES):
        self.entries = entries
        self.stats = {}
        self.spans = []
        self.absent = []
        self.word_keys = weakref.WeakKeyDictionary()
        self._stack = [[0.0]]       # frames: [child seconds]; root never pops
        self._span_stack = []
        self._undo = []

    def stat(self, key):
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = Stat()
        return s

    # -- installation ------------------------------------------------------

    def install(self):
        for modname, path, key, kind, opts in self.entries:
            found = _resolve(modname, path)
            if found is None:
                self.absent.append("%s.%s" % (modname, path))
                continue
            owner, name, fn = found
            wrapper = self._wrap(fn, key, kind, opts)
            if isinstance(owner, type):
                # the method and every alias bound to the same function
                for attr, value in list(owner.__dict__.items()):
                    if value is fn:
                        self._patch(owner, attr, value, wrapper)
            else:
                for mname, mod in list(sys.modules.items()):
                    if mname != "liequant" and not mname.startswith("liequant."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, value, wrapper)
            for k in _KEYED.get(key, (key,)):
                self.stat(k)
        return self

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _wrap(self, fn, key, kind, opts):
        if kind == COUNT:
            stat = self.stat(key)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        keyfn = opts.get("key")
        pre = opts.get("pre")
        post = opts.get("post")
        post_stat = self.stat(opts["post_key"]) if "post_key" in opts else None
        fixed = None if keyfn else self.stat(key)
        span = kind == SPAN
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = clock()
            stat = fixed if keyfn is None else tracer.stat(keyfn(args, kwargs))
            if pre is not None:
                pre(tracer, stat, args)
            if span:
                sid = len(tracer.spans)
                parent = tracer._span_stack[-1] if tracer._span_stack else None
                tracer.spans.append(None)
                tracer._span_stack.append(sid)
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if not stat.depth:
                    stat.total_s += dt
                if span:
                    tracer._span_stack.pop()
                    tracer.spans[sid] = {"id": sid, "parent": parent,
                                         "name": key if keyfn is None else
                                         keyfn(args, kwargs),
                                         "start": t0, "end": t1}
                if post is not None and result is not None:
                    post(tracer, post_stat or stat, args, result)
                # the whole wrapper, hooks included, counts as child time
                # of the caller, so hook work lands in no self time
                stack[-1][0] += clock() - t_enter

        return traced

    # -- results -------------------------------------------------------------

    def report(self):
        stats = {k: v.as_dict() for k, v in sorted(self.stats.items())}
        metrics = {}
        for name, fn in METRICS.items():
            value = fn(stats)
            if value is not None:
                metrics[name] = value
        return {"metrics": metrics, "stats": stats,
                "spans": [s for s in self.spans if s is not None],
                "absent": self.absent}
