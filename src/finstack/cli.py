"""Command-line driver.

Every command reads one site-description file (DSL text or interchange
JSON, sniffed), runs one operation, and prints a report: human-readable
lines by default, the full report as JSON with --json.

Exit codes: 0 the requested check passed (or the command only computes),
1 a check ran and failed, 2 the input or flag selection is unusable,
3 an enumeration cap was exceeded, 4 an internal invariant broke.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import fields

from . import caps as _caps
from .caps import CapExceeded, Caps
from .descent import Plan, desc_cat, is_prestack, is_stack
from .dsl import block_name, digest_text, load_input, serialize_blocks
from .fibadj import (
    L_D,
    R_D,
    as_fibration,
    check_thm_4_2_i,
    check_thm_4_2_ii,
    counit_eps,
    flat,
    sharp,
    unit_eta,
    validate_fib_mor,
)
from .fincat import InternalError, terminal_cat
from .groth import check_lemma_3_1, giraud_topology, grothendieck
from .indexed import (
    const_indexed,
    embed_discrete,
    find_indexed_natiso,
    identity_indexed_fun,
    is_indexed_equivalence,
)
from .site import SiteError, minimal_cover
from .stackify import reflect_through_unit, sheafify_with_unit, stackify
from .util import fmt, stable_sorted


class InputProblem(Exception):
    """The input file or the flag selection cannot be used; exit code 2."""


# ---------------------------------------------------------------------------
# selection helpers


def _pick(table, chosen, what, flag):
    if chosen is not None:
        if chosen not in table:
            raise InputProblem(f"no {what} named {chosen!r} in the input")
        return chosen, table[chosen]
    names = stable_sorted(table)
    if not names:
        raise InputProblem(f"the input declares no {what}")
    if len(names) > 1:
        listed = ", ".join(str(n) for n in names)
        raise InputProblem(f"several {what} blocks ({listed}); pick one "
                           f"with {flag}")
    return names[0], table[names[0]]


def _pick_indexed(env, args):
    """The indexed category to operate on, embedding a presheaf on demand."""
    ind = getattr(args, "indexed", None)
    psh = getattr(args, "presheaf", None)
    if psh is not None and ind is not None:
        raise InputProblem("--indexed and --presheaf exclude each other; "
                           "give one")
    if psh is not None:
        name, P = _pick(env.presheaves, psh, "presheaf", "--presheaf")
        return name, embed_discrete(P)
    if ind is not None or env.indexed:
        return _pick(env.indexed, ind, "indexed category", "--indexed")
    if env.presheaves:
        name, P = _pick(env.presheaves, None, "presheaf", "--presheaf")
        return name, embed_discrete(P)
    raise InputProblem("the input declares no indexed category or presheaf")


def _pick_topology(env, args, name=None, base=None):
    """The coverage to use; with `base`, it must be a coverage on that
    category, the base of the block called `name`."""
    jname, J = _pick(env.topologies, getattr(args, "coverage", None),
                     "coverage", "--coverage")
    if base is not None and J.base != base:
        raise InputProblem(
            f"coverage {jname!r} is on {_base_name(env, J.base)!r}, not on "
            f"{_base_name(env, base)!r}, the base of {name!r}")
    return jname, J


def _base_name(env, base):
    name = block_name(env.cats.items(), base)
    return (base.name or "C") if name is None else name


def _find_object(base, label):
    for o in base.objects:
        if o == label or fmt(o) == label:
            return o
    raise InputProblem(f"no object {label!r} in the base category")


def _emit(args, results, blocks):
    """With --emit, write `blocks` as interchange JSON and note the path."""
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(serialize_blocks(blocks))
        results["emitted"] = args.emit


# ---------------------------------------------------------------------------
# command handlers: (env, args, caps) -> (results dict, ok)


def cmd_validate(env, args, caps):
    results = {
        "blocks": [[kind, str(name)] for kind, name in env.order],
        "findings": [
            {"kind": k, "name": str(n), "witness": msg}
            for k, n, msg in env.findings
        ],
    }
    return results, not env.findings


def cmd_saturate(env, args, caps):
    name, J = _pick_topology(env, args)
    covers = {}
    for x in J.base.objects:
        covers[fmt(x)] = [sorted(fmt(m) for m in s.mors) for s in J.covers_of(x)]
    return {"coverage": str(name), "covers": covers}, True


def cmd_desc(env, args, caps):
    dname, D = _pick_indexed(env, args)
    jname, J = _pick_topology(env, args, dname, D.base)
    x = _find_object(D.base, args.at)
    if args.family is not None:
        fams = J.covers_of(x)
        if not 0 <= args.family < len(fams):
            raise InputProblem(
                f"--family {args.family} out of range; {fmt(x)} has "
                f"{len(fams)} covers")
        R = fams[args.family]
    else:
        R = minimal_cover(J, x)
    dc = desc_cat(Plan(D, R), caps)
    return {
        "indexed": str(dname),
        "coverage": str(jname),
        "at": fmt(x),
        "sieve": sorted(fmt(m) for m in R.mors),
        "objects": len(dc.objects),
        "morphisms": len(dc.mor),
    }, True


def cmd_check(env, args, caps):
    dname, D = _pick_indexed(env, args)
    jname, J = _pick_topology(env, args, dname, D.base)
    if args.prestack:
        what, c = "prestack", is_prestack(D, J, caps)
    else:
        what, c = "stack", is_stack(D, J, caps)
    return {
        "indexed": str(dname),
        "coverage": str(jname),
        "predicate": what,
        "holds": c.ok,
        "witness": c.reason,
    }, c.ok


def cmd_stackify(env, args, caps):
    dname, D = _pick_indexed(env, args)
    jname, J = _pick_topology(env, args, dname, D.base)
    s = stackify(D, J, caps)
    results = {
        "indexed": str(dname),
        "coverage": str(jname),
        "fibres": {
            fmt(X): {
                "objects": len(s.stack.fib[X].objects),
                "morphisms": len(s.stack.fib[X].mor),
            }
            for X in s.stack.base.objects
        },
    }
    _emit(args, results, [
        ("category", _base_name(env, D.base), D.base),
        ("topology", str(jname), J),
        ("indexed", f"{dname}.st", s.stack),
    ])
    return results, True


def cmd_sheafify(env, args, caps):
    pname, P = _pick(env.presheaves, getattr(args, "presheaf", None),
                     "presheaf", "--presheaf")
    jname, J = _pick_topology(env, args, pname, P.base)
    sheaf, unit = sheafify_with_unit(P, J, caps)
    results = {
        "presheaf": str(pname),
        "coverage": str(jname),
        "sections": {fmt(X): len(sheaf.els[X]) for X in sheaf.base.objects},
        "unit": {
            fmt(X): {fmt(e): fmt(unit[X][e]) for e in stable_sorted(P.els[X])}
            for X in P.base.objects
        },
    }
    _emit(args, results, [
        ("category", _base_name(env, P.base), P.base),
        ("topology", str(jname), J),
        ("presheaf", f"{pname}.sh", sheaf),
    ])
    return results, True


def cmd_groth(env, args, caps):
    dname, D = _pick_indexed(env, args)
    G = grothendieck(D, caps)
    results = {
        "indexed": str(dname),
        "objects": len(G.total.objects),
        "morphisms": len(G.total.mor),
        "object-list": sorted(fmt(o) for o in G.total.objects),
    }
    _emit(args, results, [("category", f"{dname}.tot", G.total)])
    return results, True


def cmd_giraud(env, args, caps):
    dname, D = _pick_indexed(env, args)
    jname, J = _pick_topology(env, args, dname, D.base)
    G = grothendieck(D, caps)
    JD = giraud_topology(G, J, caps)
    results = {
        "indexed": str(dname),
        "coverage": str(jname),
        "covers": {fmt(x): len(JD.covers[x]) for x in G.total.objects},
    }
    _emit(args, results, [
        ("category", f"{dname}.tot", G.total),
        ("topology", f"{jname}.gir", JD),
    ])
    return results, True


def cmd_lemma31(env, args, caps):
    dname, D = _pick_indexed(env, args)
    jname, J = _pick_topology(env, args, dname, D.base)
    if args.fiber is not None:
        _, K = _pick(env.cats, args.fiber, "category", "--fiber")
    else:
        K = terminal_cat()
    G = grothendieck(D, caps)
    E = const_indexed(G.total, K)
    rep = check_lemma_3_1(E, G, J, caps)
    results = {
        "indexed": str(dname),
        "coverage": str(jname),
        "agree": rep.agree,
        "total-side": {"holds": rep.total_side.ok,
                       "witness": rep.total_side.reason},
        "fiber-side": {"holds": rep.fiber_side.ok,
                       "witness": rep.fiber_side.reason},
        "instances": [[fmt(X), fmt(Aa), bool(ok)]
                      for X, Aa, ok in rep.instances],
    }
    return results, rep.agree


def cmd_fiber_adjunction(env, args, caps):
    want = args.fibration
    picked = args.indexed is not None or args.presheaf is not None
    if want is not None and picked:
        raise InputProblem("--fibration excludes --indexed and --presheaf; "
                           "give one")
    if want is not None or (env.indexedfuns and not picked):
        pname, p = _pick(env.indexedfuns, want, "fibration", "--fibration")
    else:
        pname, D = _pick_indexed(env, args)
        p = identity_indexed_fun(D)
    jname, J = _pick_topology(env, args, pname, p.E.base)
    try:
        fib = as_fibration(p)
    except ValueError as e:
        raise InputProblem(str(e)) from None

    G = grothendieck(fib.p.E, caps)
    r = R_D(fib, G, caps)
    la = L_D(r, G, caps)
    eta = unit_eta(r, G, caps)
    unit_c = is_indexed_equivalence(eta)
    eps = counit_eps(fib, G, caps)
    counit_c = is_indexed_equivalence(eps)

    h = identity_indexed_fun(r)
    fm = flat(h, fib, G, caps, LA=la, LR=la)
    fm_ok = validate_fib_mor(fm) == []
    h2 = sharp(fm, la, G, caps, R_dst=r)
    round_sharp = find_indexed_natiso(h2, h, caps) is not None
    fm2 = flat(h2, fib, G, caps, LA=la, LR=la)
    round_flat = find_indexed_natiso(fm2.F, fm.F, caps) is not None
    transpose_ok = fm_ok and round_sharp and round_flat

    t1 = check_thm_4_2_i(fib, J, caps)
    t2 = check_thm_4_2_ii(fib, J, G, caps)
    results = {
        "fibration": str(pname),
        "coverage": str(jname),
        "unit-equivalence": {"holds": unit_c.ok, "witness": unit_c.reason},
        "counit-equivalence": {"holds": counit_c.ok,
                               "witness": counit_c.reason},
        "transposes-quasi-inverse": transpose_ok,
        "plus-preserves-fibration": {"holds": t1.ok, "witness": t1.reason},
        "stackified-descent": {"holds": t2.ok, "witness": t2.reason},
    }
    ok = unit_c.ok and counit_c.ok and transpose_ok and t1.ok and t2.ok
    return results, ok


def cmd_factorize(env, args, caps):
    pname, phi = _pick(env.indexedfuns, getattr(args, "phi", None),
                       "fibration", "--phi")
    jname, J = _pick_topology(env, args, pname, phi.E.base)
    try:
        ref = reflect_through_unit(phi, J, caps)
    except ValueError as e:
        raise InputProblem(f"the target of {pname!r} is not a stack: {e}")
    results = {
        "through": str(pname),
        "coverage": str(jname),
        "factored": True,
        "witness": {
            fmt(X): {fmt(V): fmt(m) for V, m in stable_sorted(cx.items())}
            for X, cx in ref.witness.comp.items()
        },
    }
    return results, True


# ---------------------------------------------------------------------------
# argument parsing, report assembly

# One flag per Caps field (`caps.flag` names it), in field order.
_CAPS = [cap.name for cap in fields(Caps)]


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept: `parse_args`
    returns a fresh namespace on every call.  The `cmd_*` handlers are bound
    at that first build, so rebinding one of those names later does not
    reach `main`; the handlers read this module's globals when they run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="site description (.site DSL or interchange JSON)")
    common.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    for cap in _CAPS:
        common.add_argument(_caps.flag(cap), type=int, default=getattr(Caps, cap))

    p = argparse.ArgumentParser(
        prog="finstack",
        description="finite sites, descent, and stackification checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, flags=()):
        sp = sub.add_parser(name, parents=[common], help=helptext)
        sp.set_defaults(func=fn)
        if "coverage" in flags:
            sp.add_argument("--coverage", help="coverage block to use")
        if "indexed" in flags:
            sp.add_argument("--indexed", help="indexed block to use")
            sp.add_argument("--presheaf",
                            help="presheaf block to embed and use instead")
        if "emit" in flags:
            sp.add_argument("--emit", metavar="OUT",
                            help="write the result as interchange JSON")
        return sp

    add("validate", cmd_validate,
        "elaborate the input and report law violations")
    add("saturate", cmd_saturate,
        "print the saturated covers of a coverage", ["coverage"])
    sp = add("desc", cmd_desc,
             "print the descent category at an object",
             ["coverage", "indexed"])
    sp.add_argument("--at", required=True, metavar="X",
                    help="base object to take descent data over")
    sp.add_argument("--family", type=int, metavar="N",
                    help="index into the covers of X (default: the minimal one)")
    sp = add("check", cmd_check,
             "test the prestack or stack condition", ["coverage", "indexed"])
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--prestack", action="store_true")
    grp.add_argument("--stack", action="store_true")
    add("stackify", cmd_stackify,
        "apply the double-plus construction", ["coverage", "indexed", "emit"])
    sp = add("sheafify", cmd_sheafify,
             "sheafify a presheaf (set-valued double plus)",
             ["coverage", "emit"])
    sp.add_argument("--presheaf", help="presheaf block to use")
    add("groth", cmd_groth,
        "build the total category of the Grothendieck construction",
        ["indexed", "emit"])
    add("giraud", cmd_giraud,
        "transfer the topology to the total category",
        ["coverage", "indexed", "emit"])
    sp = add("lemma31", cmd_lemma31,
             "compare total-category descent with fiberwise descent",
             ["coverage", "indexed"])
    sp.add_argument("--fiber", metavar="CAT",
                    help="constant fiber category (default: terminal)")
    sp = add("fiber-adjunction", cmd_fiber_adjunction,
             "run the unit/counit, transpose, and localization checks",
             ["coverage", "indexed"])
    sp.add_argument("--fibration",
                    help="fibration block to use (default: the only one; "
                         "with --indexed or --presheaf, or with no fibration "
                         "block, the identity fibration of that block)")
    sp = add("factorize", cmd_factorize,
             "factor an indexed functor into a stack through the unit",
             ["coverage"])
    sp.add_argument("--phi", help="fibration block holding the functor")
    return p


_ARG_SKIP = {"func", "command", "file", "json", *_CAPS}


def _assemble(args, digest, results, ok, t0):
    echo = {}
    for k, v in vars(args).items():
        if k in _ARG_SKIP or v is None or v is False:
            continue
        echo[k.replace("_", "-")] = v
    return {
        "command": args.command,
        "args": echo,
        "inputs": [{"path": args.file, "digest": digest}],
        "caps": {_caps.flag(cap).lstrip("-"): getattr(args, cap) for cap in _CAPS},
        "results": results,
        "ok": ok,
        "timing-ms": int((time.monotonic() - t0) * 1000),
    }


def _print_human(report, out):
    print(f"finstack {report['command']}: {report['inputs'][0]['path']}",
          file=out)
    for k in sorted(report["results"]):
        v = report["results"][k]
        if isinstance(v, (str, int, float, bool)):
            print(f"  {k}: {v}", file=out)
        else:
            print(f"  {k}: {json.dumps(v, sort_keys=True, default=str)}",
                  file=out)
    print("ok" if report["ok"] else "check failed", file=out)


def _print_error(args, code, message):
    # json reports stay on stdout so pipes always see json; prose goes to stderr
    if getattr(args, "json", False):
        payload = {
            "command": getattr(args, "command", None),
            "error": {"code": code, "message": message},
            "ok": False,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in message.splitlines() or [message]:
            print(f"error: {line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    caps = Caps(**{cap: getattr(args, cap) for cap in _CAPS})
    out = sys.stdout
    try:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputProblem(f"cannot read {args.file}: {e.strerror}")
        except UnicodeDecodeError as e:
            raise InputProblem(f"cannot read {args.file}: not UTF-8 text "
                               f"(byte {e.start}: {e.reason})")
        digest = digest_text(text)
        env, diags = load_input(text, caps)
        if env is None:
            raise InputProblem("\n".join(str(d) for d in diags))
        if env.findings and args.command != "validate":
            lines = [f"{k} {n!r}: {msg}" for k, n, msg in env.findings]
            raise InputProblem(
                "the input declares structures that break their laws:\n"
                + "\n".join(lines))
        results, ok = args.func(env, args, caps)
    except InputProblem as e:
        return _print_error(args, 2, str(e))
    except SiteError as e:
        return _print_error(args, 2, str(e))
    except CapExceeded as e:
        return _print_error(args, 3, str(e))
    except InternalError as e:
        return _print_error(args, 4, str(e))
    report = _assemble(args, digest, results, ok, t0)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=str),
              file=out)
    else:
        _print_human(report, out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
