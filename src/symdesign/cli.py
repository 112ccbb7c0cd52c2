"""Command-line front end.

Verbs: construct, verify, group, flagtest, eliminate, families.
Exit codes: 0 expected outcome, 1 violated expectation, 2 usage error;
`main` alone turns a raised error into its code and its message.
Machine-readable report lines are prefixed with #R.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import algebra, constructions, design, elimination, perm
from .design import read_design_file


class UsageError(Exception):
    """Bad outside input; `main` prints it as `error: ...` and exits 2."""


def _int_arg(form: str, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"construct {form}: {name} must be an integer, got {text!r}") from None


def _outside(call, *args):
    """call(*args) on outside input: a bad file or parameter is a UsageError."""
    try:
        return call(*args)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _cmd_construct(args) -> int:
    group = None
    if args.what[0] == "pg":
        if len(args.what) != 3:
            raise UsageError("construct pg needs: pg N Q")
        n, q = _int_arg("pg", "N", args.what[1]), _int_arg("pg", "Q", args.what[2])
        D = _outside(constructions.projective_space, n, q)
        label = f"pg({n},{q})"
    elif args.what[0] == "diffset":
        if len(args.what) != 4:
            raise UsageError("construct diffset needs: diffset AMBIENT K LAMBDA")
        ambient_name = args.what[1]
        if ambient_name not in constructions._AMBIENTS:
            raise UsageError(
                f"unknown ambient group {ambient_name!r}; choose from"
                f" {sorted(constructions._AMBIENTS)}"
            )
        k = _int_arg("diffset", "K", args.what[2])
        lam = _int_arg("diffset", "LAMBDA", args.what[3])
        ambient = constructions._AMBIENTS[ambient_name]()
        spec = _outside(constructions.find_difference_set, ambient, k, lam)
        if spec is None:
            print("no difference set found")
            return 1
        D = constructions.develop_difference_set(spec)
        label = f"development of {sorted(spec.ambient.index[e] for e in spec.base_set)}"
    else:
        if len(args.what) != 1:
            raise UsageError("construct takes one catalog name, or pg/diffset forms")
        try:
            inst = constructions.catalog(args.what[0])
        except KeyError as exc:
            raise UsageError(exc.args[0])
        D, group, label = inst.design, inst.group, inst.name
    params = D.verify_symmetric()
    print(f"{label}: ({params.v},{params.k},{params.lam})")
    if args.output:
        _write(design.write_design_file, args.output, D)
    if args.group_out:
        if group is None:
            print("no group available for this construction")
            return 1
        _write(perm.write_group_file, args.group_out, group)
    return 0


def _write(writer, path, obj) -> None:
    try:
        writer(path, obj)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _cmd_verify(args) -> int:
    params = _outside(read_design_file, args.design).verify_symmetric()
    trivial = "" if params.nontrivial else " (trivial)"
    lam_note = " (lambda prime)" if algebra.is_prime(params.lam) else ""
    print(f"symmetric ({params.v},{params.k},{params.lam}){trivial}{lam_note}")
    return 0


def _cmd_group(args) -> int:
    G = _outside(perm.read_group_file, args.group)
    point = args.point - 1
    if not 0 <= point < G.degree:
        raise UsageError(f"--point must be in 1..{G.degree}")
    try:
        if args.query == "order":
            print(G.order())
        elif args.query == "orbits":
            for orb in G.orbits():
                print(",".join(str(p + 1) for p in sorted(orb)))
        elif args.query == "subdegrees":
            print(" ".join(map(str, G.subdegrees(point))))
        else:
            text, system = _primitivity(G)
            print(f"primitive: {text}")
            for cls in system.classes() if system else ():
                print(",".join(str(p + 1) for p in sorted(cls)))
    except perm.IntransitiveError:
        print("group is not transitive")
        return 1
    return 0


def _primitivity(G):
    """'yes' or 'no (CxD system)' for a transitive G, and its block system."""
    primitive, system = G.is_primitive()
    if primitive:
        return "yes", None
    return f"no ({system.class_size}x{system.num_classes} system)", system


def _cmd_flagtest(args) -> int:
    G = _outside(perm.read_group_file, args.group)
    D = _outside(read_design_file, args.design)
    try:
        ft = design.is_flag_transitive(G, D)
    except ValueError as exc:
        print(f"precondition failed: {exc}")
        return 1
    try:
        prim_text = _primitivity(G)[0]
    except perm.IntransitiveError:
        prim_text = "no (intransitive)"
    print(f"flag-transitive: {'yes' if ft else 'no'}; primitive: {prim_text}")
    return 0 if ft else 1


def _cmd_eliminate(args) -> int:
    if args.table:
        reports = _outside(elimination.run_catalog, args.table)
        for rep in reports:
            note = f" [{rep.note}]" if rep.note else ""
            print(f"#R {rep.row.id} {rep.status} {_pairs_text(rep.pairs)}{note}")
        bad = sum(rep.status != "PASS" for rep in reports)
        print(f"{len(reports)} rows, {len(reports) - bad} PASS, {bad} not PASS")
        return 0 if bad == 0 else 1
    if args.v is None or args.bound is None:
        raise UsageError("eliminate needs --table ID or both --v and --bound")
    print(_pairs_text(_outside(elimination.admissible, args.v, args.bound, args.required_lambda)))
    return 0


def _pairs_text(pairs) -> str:
    return " ".join(f"({p.k},{p.lam})" for p in pairs) or "EMPTY"


def _cmd_families(args) -> int:
    if args.lam < 2 or not algebra.is_prime(args.lam):
        raise UsageError("--lambda must be prime")
    # one line per family, in first-seen order: two rules can give the same one
    for v, k, lam, c, d, length in dict.fromkeys(elimination.corollary_families(args.lam)):
        print(f"(v,k,lambda,c,d,l) = ({v},{k},{lam},{c},{d},{length})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls;
    `parse_args` gives each call a fresh namespace."""
    p = argparse.ArgumentParser(prog="symdesign")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a named design, pg N Q, or diffset")
    c.add_argument("what", nargs="+")
    c.add_argument("-o", "--output", help="design file to write")
    c.add_argument("--group-out", help="group file to write")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="verify a design file")
    v.add_argument("design")
    v.set_defaults(func=_cmd_verify)

    g = sub.add_parser("group", help="query a group file")
    g.add_argument("query", choices=["order", "orbits", "primitive", "subdegrees"])
    g.add_argument("group")
    g.add_argument("--point", type=int, default=1)
    g.set_defaults(func=_cmd_group)

    f = sub.add_parser("flagtest", help="test flag-transitivity of a group on a design")
    f.add_argument("group")
    f.add_argument("design")
    f.set_defaults(func=_cmd_flagtest)

    e = sub.add_parser("eliminate", help="divisor scan for admissible (k, lambda)")
    e.add_argument("--table", help="catalog table id or 'all'")
    e.add_argument("--v", type=int)
    e.add_argument("--bound", type=int)
    e.add_argument("--lambda", dest="required_lambda", type=int)
    e.set_defaults(func=_cmd_eliminate)

    fam = sub.add_parser("families", help="imprimitivity parameter families")
    fam.add_argument("--lambda", dest="lam", type=int, required=True)
    fam.set_defaults(func=_cmd_families)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except design.DesignError as exc:
        print(f"not a symmetric design [{exc.code}]: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
