"""Command-line front end.

Verbs: construct, verify, group, flagtest, eliminate, families, selftest.
Exit codes: 0 expected outcome, 1 violated expectation, 2 usage error.
Machine-readable report lines are prefixed with #R.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import algebra, constructions, design, elimination, perm
from .design import read_design_file


def _int_arg(form: str, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SystemExit2(f"construct {form}: {name} must be an integer, got {text!r}") from None


def _cmd_construct(args) -> int:
    if args.what[0] == "pg":
        if len(args.what) != 3:
            raise SystemExit2("construct pg needs: pg N Q")
        n, q = _int_arg("pg", "N", args.what[1]), _int_arg("pg", "Q", args.what[2])
        try:
            D = constructions.projective_space(n, q)
        except ValueError as exc:
            raise SystemExit2(str(exc))
        group = None
        label = f"pg({n},{q})"
    elif args.what[0] == "diffset":
        if len(args.what) != 4:
            raise SystemExit2("construct diffset needs: diffset AMBIENT K LAMBDA")
        ambient_name = args.what[1]
        if ambient_name not in constructions._AMBIENTS:
            raise SystemExit2(
                f"unknown ambient group {ambient_name!r}; choose from"
                f" {sorted(constructions._AMBIENTS)}"
            )
        k = _int_arg("diffset", "K", args.what[2])
        lam = _int_arg("diffset", "LAMBDA", args.what[3])
        try:
            spec = constructions.find_difference_set(
                constructions._AMBIENTS[ambient_name](), k, lam
            )
        except ValueError as exc:
            raise SystemExit2(str(exc))
        if spec is None:
            print("no difference set found")
            return 1
        D = constructions.develop_difference_set(spec)
        group = None
        label = f"development of {sorted(spec.ambient.index[e] for e in spec.base_set)}"
    else:
        if len(args.what) != 1:
            raise SystemExit2("construct takes one catalog name, or pg/diffset forms")
        try:
            inst = constructions.catalog(args.what[0])
        except KeyError as exc:
            raise SystemExit2(str(exc))
        D, group, label = inst.design, inst.group, inst.name
    params = _verified(D)
    if params is None:
        return 1
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
        raise SystemExit2(f"{path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _verified(D: design.IncidenceStructure):
    """D's parameters, or None after printing the first violation."""
    try:
        return D.verify_symmetric()
    except design.DesignError as exc:
        print(f"not a symmetric design [{exc.code}]: {exc}")
        return None


def _cmd_verify(args) -> int:
    try:
        D = read_design_file(args.design)
    except (OSError, ValueError) as exc:
        raise SystemExit2(str(exc))
    params = _verified(D)
    if params is None:
        return 1
    trivial = "" if params.nontrivial else " (trivial)"
    lam_note = " (lambda prime)" if algebra.is_prime(params.lam) else ""
    print(f"symmetric ({params.v},{params.k},{params.lam}){trivial}{lam_note}")
    return 0


def _cmd_group(args) -> int:
    try:
        G = perm.read_group_file(args.group)
    except (OSError, ValueError) as exc:
        raise SystemExit2(str(exc))
    point = args.point - 1
    if not 0 <= point < G.degree:
        raise SystemExit2(f"--point must be in 1..{G.degree}")
    if args.query == "order":
        print(G.order())
    elif args.query == "orbits":
        for orb in G.orbits():
            print(",".join(str(p + 1) for p in sorted(orb)))
    elif args.query == "subdegrees":
        if not G.is_transitive():
            print("group is not transitive")
            return 1
        print(" ".join(map(str, G.subdegrees(point))))
    elif args.query == "primitive":
        if not G.is_transitive():
            print("group is not transitive")
            return 1
        primitive, system = G.is_primitive()
        if primitive:
            print("primitive: yes")
        else:
            c, d = system.class_size, system.num_classes
            print(f"primitive: no ({c}x{d} system)")
            for cls in system.classes():
                print(",".join(str(p + 1) for p in sorted(cls)))
    return 0


def _cmd_flagtest(args) -> int:
    try:
        G = perm.read_group_file(args.group)
        D = read_design_file(args.design)
    except (OSError, ValueError) as exc:
        raise SystemExit2(str(exc))
    try:
        ft = design.is_flag_transitive(G, D)
    except ValueError as exc:
        print(f"precondition failed: {exc}")
        return 1
    primitive, system = G.is_primitive() if G.is_transitive() else (False, None)
    if primitive:
        prim_text = "yes"
    elif system is not None:
        prim_text = f"no ({system.class_size}x{system.num_classes} system)"
    else:
        prim_text = "no (intransitive)"
    print(f"flag-transitive: {'yes' if ft else 'no'}; primitive: {prim_text}")
    return 0 if ft else 1


def _cmd_eliminate(args) -> int:
    if args.table:
        try:
            reports = elimination.run_catalog(args.table)
        except ValueError as exc:
            raise SystemExit2(str(exc))
        bad = 0
        for rep in reports:
            pairs = " ".join(f"({p.k},{p.lam})" for p in rep.pairs) or "EMPTY"
            note = f" [{rep.note}]" if rep.note else ""
            print(f"#R {rep.row.id} {rep.status} {pairs}{note}")
            if rep.status != "PASS":
                bad += 1
        print(f"{len(reports)} rows, {len(reports) - bad} PASS, {bad} not PASS")
        return 0 if bad == 0 else 1
    if args.v is None or args.bound is None:
        raise SystemExit2("eliminate needs --table ID or both --v and --bound")
    try:
        pairs = elimination.admissible(args.v, args.bound, args.required_lambda)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if pairs:
        print(" ".join(f"({p.k},{p.lam})" for p in pairs))
    else:
        print("EMPTY")
    return 0


def _cmd_families(args) -> int:
    if not algebra.is_prime(args.lam):
        raise SystemExit2("--lambda must be prime")
    for v, k, lam, c, d, length in elimination.corollary_families(args.lam):
        print(f"(v,k,lambda,c,d,l) = ({v},{k},{lam},{c},{d},{length})")
    return 0


def _cmd_selftest(args) -> int:
    import pathlib

    import pytest

    # src/symdesign/cli.py -> src -> repository root -> tests/
    root = pathlib.Path(__file__).resolve().parents[2]
    target = root / "tests" / "test_acceptance.py"
    if not target.exists():
        print("acceptance tests not found; run pytest from the source tree")
        return 1
    return pytest.main(["-v", "-s", str(target)])


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


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

    s = sub.add_parser("selftest", help="run the acceptance suite")
    s.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
