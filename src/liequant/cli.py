"""Command-line front end.

Leaf commands: cbh, bfamily (solve|check), shuffle (mul|hopf-check),
rmatrix, qybe (solve|cohomology), quantize, cybe-props; each declares
only the options it reads (COMMANDS), and OPTIONS gives each option's
type, default and choices.  parse_args reads the command line from the
two tables: the command words first, then the options, each under its
full name only, as `--opt value` or `--opt=value`.  The token after an
option is its value unless it starts with `--` (so `--hbar-order -1`
reaches the command and is rejected there); a repeated option keeps its
last value.  -h/--help prints the usage of the command words before it
and exits 0.  Every other usage error (a missing or unknown command or
action, an undeclared option or stray word, a missing value, an invalid
int or choice) prints the usage and one `liequant <command>: error:`
line to stderr and exits 2.

JSON is the interchange format; exit code 0 on success, 1 on any
residual failure, 2 on usage and input errors, 141 when stdout is
closed early (no traceback).  Outputs are deterministic for a fixed
configuration.
"""

from __future__ import annotations

import json
import os
import random
import sys
import types
from fractions import Fraction

from . import freealg, bfamily, liealg, shuffle, rmatrix, universal, deform, quantize
from .scalars import scalar_str


#: exit code when stdout is closed before the output is written, as a
#: shell reports a process ended by SIGPIPE (128 + 13)
CLOSED_STDOUT = 141


class BadInput(ValueError):
    pass


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise BadInput("%s (%s): %s" % (what, path, e))


def _parse(loader, data, what):
    """loader(data), with missing keys and wrong types as input errors."""
    try:
        return loader(data)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as e:
        raise BadInput("%s: malformed (%s: %s)" % (what, type(e).__name__, e))


def _at_least(flag, value, least):
    if value < least:
        raise BadInput("%s must be at least %d" % (flag, least))


def _print_obstructed(command, e):
    """One stderr line for a bfamily.Obstructed: the degree, then the
    failed check and the key and coefficient of its witness term when e
    names them."""
    line = "%s: obstructed at degree %s" % (command, e)
    if e.reason is not None:
        key, c = e.witness
        line += " (%s: %r = %s)" % (e.reason, key, c)
    print(line, file=sys.stderr)


def _stored_family(degree):
    """bfamily.stored_family(degree), with a degree above the stored one
    as an input error."""
    try:
        return bfamily.stored_family(degree)
    except ValueError as e:
        raise BadInput("B-family: %s" % e)


def _solve_varrho(command, fam, degree):
    """universal.solve_varrho, or None after one stderr line naming the
    degree at which the system is obstructed or not unique."""
    try:
        return universal.solve_varrho(fam, degree)
    except bfamily.Obstructed as e:
        _print_obstructed(command, e)
    except rmatrix.NonUnique as e:
        print("%s: solution not unique at degree %s" % (command, e), file=sys.stderr)
    return None


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise BadInput("--out (%s): %s" % (args.out, e))
    else:
        print(text)


def cmd_cbh(args):
    _at_least("--max-degree", args.max_degree, 1)
    table = freealg.cbh(args.max_degree)
    out = {"max_degree": args.max_degree,
           "entries": [{"p": p, "q": q, "poly": freealg.lie_to_json(v),
                        "text": freealg.lie_text(v)}
                       for (p, q), v in sorted(table.items()) if v]}
    _emit(args, out)
    for (p, q), v in sorted(table.items()):
        if v and p + q <= 3:
            print("B_CBH[%d,%d] = %s" % (p, q, freealg.lie_text(v)), file=sys.stderr)
    return 0


def cmd_bfamily(args):
    if args.action == "solve":
        _at_least("--max-degree", args.max_degree, 2)
        lam = _parse(Fraction, args.lam, "--lam")
        if args.gauge == "paper3" and lam != Fraction(1, 2):
            raise BadInput("--gauge paper3 requires --lam 1/2")
        try:
            fam = bfamily.solve_bfamily(lam, args.max_degree, args.gauge)
        except bfamily.Obstructed as e:
            _print_obstructed("bfamily solve", e)
            return 1
        _emit(args, bfamily.bfamily_to_json(fam))
        return 0
    if args.bfamily is None:
        raise BadInput("--bfamily is required for bfamily check")
    fam = _parse(bfamily.bfamily_from_json, _load_json(args.bfamily, "bfamily"), "bfamily")
    bad = [{"p": p, "q": q, "r": r, "residual": freealg.lie_text(res)}
           for p, q, r, res in bfamily.violations(fam)]
    _emit(args, {"ok": not bad, "violations": bad})
    return 0 if not bad else 1


def _bialgebra_from_args(args):
    if args.bialgebra == "borel2":
        return liealg.borel2()
    if args.bialgebra == "abelian2":
        return liealg.abelian_bialgebra(2)
    d = _load_json(args.bialgebra, "bialgebra")
    bia = _parse(liealg.bialgebra_from_json, d, "bialgebra")
    bad = _parse(liealg.validate_bialgebra, bia, "bialgebra")
    if bad:
        raise BadInput("bialgebra: violates %s" % (bad,))
    return bia


def cmd_shuffle(args):
    _at_least("--hbar-order", args.hbar_order, 0)
    if args.action == "hopf-check":
        _at_least("--max-degree", args.max_degree, 2)
        fam = _stored_family(args.max_degree)
        bia = _bialgebra_from_args(args)
        failures = shuffle.hopf_report(bia.algebra, fam, args.max_degree, args.hbar_order)
        _emit(args, {"ok": not failures, "failures": [list(map(str, f)) for f in failures]})
        return 1 if failures else 0
    bia = _bialgebra_from_args(args)
    u = _word("--left", args.left)
    v = _word("--right", args.right)
    if any(not 0 <= i < bia.algebra.dim for i in u + v):
        raise BadInput("letter index out of range")
    # the product of u and v reads the blocks B_pq with p + q <= |u| + |v|
    fam = _stored_family(max(len(u) + len(v), 2))
    ctx = shuffle.ShContext(bia.algebra, fam, args.hbar_order)
    prod = shuffle.sh_mul(shuffle.ShElem.word(ctx, u), shuffle.ShElem.word(ctx, v))
    _emit(args, shuffle.sh_to_json(prod))
    print(repr(prod), file=sys.stderr)
    return 0


def _word(option, text):
    """Comma-separated letter indices; "" is the empty word, and an empty
    index between, before or after commas is an input error."""
    if text == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise BadInput("word index: %s %r: %s" % (option, text, e))


def cmd_rmatrix(args):
    _at_least("--max-degree", args.max_degree, 0)
    fam = _stored_family(max(args.max_degree, 2))
    terms = rmatrix.rmatrix_terms(fam, args.max_degree)
    ok = True
    for n in range(args.max_degree + 1):
        res = rmatrix.quasitri_residual(fam, terms, n)
        if any(res.values()):
            ok = False
    _emit(args, {"ok": ok,
                 "terms": [rmatrix.uelem_to_json(t) for t in terms]})
    for n, t in enumerate(terms):
        print("R_%d = %s" % (n, rmatrix.pretty_rmatrix(t)), file=sys.stderr)
    return 0 if ok else 1


def cmd_qybe(args):
    if args.action == "cohomology":
        _at_least("--max-n", args.max_n, 1)
        dims = universal.cohomology_dims(args.max_n)
        rows = [{"N": n, "dim_H2": dims[n][0],
                 "dim_H3": dims[n][1]} for n in sorted(dims)]
        _emit(args, {"table": rows})
        print("N,dim_H2,dim_H3", file=sys.stderr)
        for r in rows:
            print("%d,%s,%s" % (r["N"], r["dim_H2"], r["dim_H3"]), file=sys.stderr)
        return 0
    _at_least("--max-degree", args.max_degree, 1)
    fam = _stored_family(args.max_degree + 1)
    sol = _solve_varrho("qybe solve", fam, args.max_degree)
    if sol is None:
        return 1
    residual = universal.univ_qybe_residual(fam, sol, args.max_degree + 1)
    payload = {"ok": not residual,
               "varrho": {str(n): rmatrix.uelem_to_json(v)
                          for n, v in sorted(sol.items())}}
    _emit(args, payload)
    return 0 if not residual else 1


def cmd_quantize(args):
    # the semiclassical check reads the hbar^1 coefficient
    _at_least("--hbar-order", args.hbar_order, 1)
    # rho to degree m makes ell and the relations exact mod hbar^m, and
    # the stored rho stops at degree 4.  solve_varrho(B, m) and the
    # relations read B to degree m + 1; the family is read one degree
    # past the order too
    m = min(args.hbar_order + 1, 4)
    depth = max(args.hbar_order, m) + 1
    if args.bfamily:
        fam = _parse(bfamily.bfamily_from_json, _load_json(args.bfamily, "bfamily"), "bfamily")
        bad = next(bfamily.violations(fam), None)
        if bad:
            raise BadInput("bfamily: not associative at (p, q, r) = (%d, %d, %d)" % bad[:3])
        if fam.max_degree < depth:
            raise BadInput("bfamily: max_degree %d is below %d, the degree needed at "
                           "--hbar-order %d" % (fam.max_degree, depth, args.hbar_order))
    else:
        fam = _stored_family(depth)
    bia = _bialgebra_from_args(args)
    vr = _solve_varrho("quantize", fam, m) if args.bfamily else bfamily.stored_varrho(m)
    if vr is None:
        return 1
    Q = quantize.Quantization(fam, bia, order=args.hbar_order, varrho=vr)
    ok = True
    try:
        Q.check_qybe()
    except quantize.QYBEFail:
        ok = False
    # relations stop at the highest order that vr makes kernel-exact
    rels = Q.extract_relations()
    d = bia.algebra.dim
    result = {
        "qybe_ok": ok,
        "order": args.hbar_order,
        "relations": {"%d,%d" % k: {str(w): scalar_str(c)
                                    for w, c in sorted(v.terms.items())}
                      for k, v in sorted(rels.items())},
        "coproduct": {},
        "semiclassical_ok": all(Q.semiclassical_check(i) for i in range(d)),
    }
    tctx = Q.tens_ctx
    for i in range(d):
        dtab = shuffle.t_comul(tctx, freealg.AssocPoly.gen(i))
        result["coproduct"][bia.algebra.basis_names[i]] = {
            "%s|%s" % (list(k[0]), list(k[1])): scalar_str(c)
            for k, c in sorted(dtab.items())}
    _emit(args, result)
    return 0 if ok and result["semiclassical_ok"] else 1


def cmd_cybe_props(args):
    _at_least("--trials", args.trials, 1)
    alg = deform.matrix_algebra(2 if args.algebra == "m2" else 3)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        R = deform.random_r(alg, rng)
        for p in range(0, 4):
            if deform.aryeh_residual(alg, R, p):
                failures += 1
    r = {(1, 1): Fraction(1)}
    part_ok = deform.recursion_residual(
        alg, r, [r, deform.half_r_squared(alg, r)], 3) == {}
    _emit(args, {"trials": args.trials, "aryeh_failures": failures,
                 "half_square_solves_order3": part_ok})
    return 0 if failures == 0 and part_ok else 1


# every option once: its "type" (str when absent) converts the value,
# "choices" lists the values accepted, "default" stands when the option
# is not given (None when absent)
OPTIONS = {
    "--out": {},
    "--max-degree": {"type": int, "default": 3},
    "--hbar-order": {"type": int, "default": 3},
    "--gauge": {"choices": ["rref-zero", "paper3"], "default": "paper3"},
    "--lam": {"default": "1/2"},
    "--bfamily": {},
    "--bialgebra": {"default": "borel2"},
    "--left": {"default": "0"},
    "--right": {"default": "1"},
    "--max-n": {"type": int, "default": 3},
    "--algebra": {"choices": ["m2", "m3"], "default": "m2"},
    "--trials": {"type": int, "default": 20},
    "--seed": {"type": int, "default": 7},
}

# leaf command -> (its function, the options it reads besides --out)
COMMANDS = {
    "cbh": (cmd_cbh, "--max-degree"),
    "bfamily solve": (cmd_bfamily, "--max-degree --gauge --lam"),
    "bfamily check": (cmd_bfamily, "--bfamily"),
    "shuffle mul": (cmd_shuffle, "--hbar-order --bialgebra --left --right"),
    "shuffle hopf-check": (cmd_shuffle, "--max-degree --hbar-order --bialgebra"),
    "rmatrix": (cmd_rmatrix, "--max-degree"),
    "qybe solve": (cmd_qybe, "--max-degree"),
    "qybe cohomology": (cmd_qybe, "--max-n"),
    "quantize": (cmd_quantize, "--hbar-order --bialgebra --bfamily"),
    "cybe-props": (cmd_cybe_props, "--algebra --trials --seed"),
}


def _dest(opt):
    return opt[2:].replace("-", "_")


def _usage(words):
    """`usage:` and one line per leaf command under `liequant WORDS`."""
    return "usage: " + "\n       ".join(
        "liequant %s [-h]" % leaf + "".join(
            " [%s %s]" % (opt, "{%s}" % ",".join(OPTIONS[opt]["choices"])
                          if "choices" in OPTIONS[opt] else _dest(opt).upper())
            for opt in ["--out"] + opts.split())
        for leaf, (_, opts) in COMMANDS.items() if leaf.split()[:len(words)] == words)


def parse_args(argv):
    """The command line argv as the attributes its command reads: fn,
    command, action (None for a leaf without one) and one per option of
    the leaf, named by _dest, with OPTIONS' default when not given."""
    words, rest = [], list(argv)

    def fail(message):
        print("%s\nliequant%s: error: %s" % (_usage(words), "".join(" " + w for w in words),
                                            message), file=sys.stderr)
        raise SystemExit(2)

    def check_choice(what, value, choices):
        if value not in choices:
            fail("argument %s: invalid choice: %r (choose from %s)"
                 % (what, value, ", ".join(map(repr, choices))))

    while " ".join(words) not in COMMANDS:
        what = "action" if words else "command"
        if not rest:
            fail("the following arguments are required: " + what)
        if rest[0] in ("-h", "--help"):
            print(_usage(words))
            raise SystemExit(0)
        check_choice(what, rest[0], list(dict.fromkeys(
            leaf.split()[len(words)] for leaf in COMMANDS
            if leaf.split()[:len(words)] == words)))
        words.append(rest.pop(0))
    fn, read = COMMANDS[" ".join(words)]
    read = ["--out"] + read.split()
    args = types.SimpleNamespace(
        fn=fn, command=words[0], action=words[1] if len(words) > 1 else None,
        **{_dest(opt): OPTIONS[opt].get("default") for opt in read})
    extra = []
    while rest:
        token = rest.pop(0)
        if token in ("-h", "--help"):
            print(_usage(words))
            raise SystemExit(0)
        opt, eq, value = token.partition("=")
        if opt not in read:
            extra.append(token)
            continue
        if not eq:
            if not rest or rest[0].startswith("--"):
                fail("argument %s: expected one argument" % opt)
            value = rest.pop(0)
        spec = OPTIONS[opt]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            fail("argument %s: invalid %s value: %r" % (opt, spec["type"].__name__, value))
        check_choice(opt, value, spec.get("choices", [value]))
        setattr(args, _dest(opt), value)
    if extra:
        fail("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BadInput as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
