"""Command-line surface.

Subcommands: classify, sl2, rootsys, subgroup, verify-paper.  Output is a
human-readable report by default; --json switches to a single deterministic
JSON document on stdout.  katzmod reads the environment only here: the
KATZMOD_COSET_CAP variable caps the coset table of `katzmod subgroup`.
"""

import argparse
import json
import os
import re
import sys

# Eager on purpose: importing cli loads every module a command reads, before any is timed.
from . import verify
from .linalg import rank  # noqa: F401  (perfbench's tracer checks it is rebound here too)
from .sl2 import principal_triple, decompose_adjoint, block_dimensions, \
    verify_bracket_identity, invariant_bilinear_form
from .roots import build_root_system, exponents, algebra_dimension, \
    weyl_dimension, irreps_of_dimension, SIMPLE_TYPES
from .classify import classify, ht_filter, form_filter
from .subgroups import resolve_subgroup, coset_enumerate, invariants, dim_rho_prim, \
    dim_cusp_forms, CosetCapExceeded, InfiniteIndex, DEFAULT_COSET_CAP


def _print(doc, as_json, text_lines):
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _integer(value):
    """An ASCII decimal integer such as -12: int() alone would also read 1_0,
    surrounding spaces and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", value):
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    return int(value)


def _k_at_least_2(value):
    try:
        k = _integer(value)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"k must be an integer, got {value!r}") from None
    if k < 2:
        raise argparse.ArgumentTypeError(f"k must be at least 2, got {k}")
    return k


def _int_list(value):
    try:
        return tuple(_integer(c) for c in value.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


def cmd_classify(args):
    k, ht = args.k, args.ht_weights
    if args.symplectic and k % 2 != 0:
        raise ValueError("--symplectic requires even k")
    raw = classify(k)
    after_ht = raw if ht is None else ht_filter(raw, k, ht)
    after_form, conclusion = form_filter(after_ht, k) if args.symplectic else (after_ht, None)
    doc = {
        "k": k,
        "raw_cases": [{"name": c.name, "label": c.label, "description": c.describe(k)}
                      for c in raw],
        "after_ht_filter": [c.name for c in after_ht],
        "after_form_filter": [c.name for c in after_form],
        "conclusion": conclusion,
    }
    lines = [f"classification for k = {k}:"]
    for c in raw:
        lines.append(f"  {c.name:<6} {c.describe(k)}")
    if ht is not None:
        lines.append(f"after Hodge-Tate filter (weights {sorted(set(ht))}): "
                     + ", ".join(doc["after_ht_filter"]))
    if args.symplectic:
        lines.append("after alternating-form filter: " + ", ".join(doc["after_form_filter"]))
        lines.append(f"conclusion: {conclusion or '(none)'}")
    _print(doc, args.json, lines)
    return 0


def cmd_sl2(args):
    k = args.k
    t = principal_triple(k)
    if args.action == "form":
        form = invariant_bilinear_form(t)
        parity = "symmetric" if form.symmetric else "antisymmetric"
        doc = {"k": k, "parity": parity}
        _print(doc, args.json, [f"invariant bilinear form for k = {k}: {parity}"])
        return 0
    dec = decompose_adjoint(t)
    if args.action == "decompose":
        dims = block_dimensions(dec, t)
        doc = {"k": k, "block_dimensions": dims, "total": sum(dims),
               "change_of_basis_rank": dec.basis_rank()}
        _print(doc, args.json, [
            f"adjoint decomposition of sl_{k}: blocks U_1 .. U_{k - 1}",
            f"  dimensions: {', '.join(map(str, dims))} (sum {sum(dims)} = {k * k - 1})",
            f"  change of basis rank: {doc['change_of_basis_rank']}",
        ])
        return 0
    results = {}
    for r in range(1, k):
        for s in range(1, k - r + 1):
            results[f"{r},{s}"] = verify_bracket_identity(dec, r, s)
    ok = all(results.values())
    doc = {"k": k, "identity": "[x^r, ad(y)x^s] = 2rs x^(r+s-1)",
           "pairs": results, "all_pass": ok}
    _print(doc, args.json, [
        f"[x^r, ad(y)x^s] = 2rs x^(r+s-1) over all r, s >= 1 with r+s <= {k}: "
        + ("all pass" if ok else "FAILURES: "
           + ", ".join(p for p, good in results.items() if not good)),
    ])
    return 0 if ok else 1


def cmd_rootsys(args):
    rs = build_root_system(args.type, args.rank)
    note = " (isomorphic to A_3)" if rs.a3_isomorphic else ""
    if args.action == "exponents":
        exp = exponents(rs)
        doc = {"type": rs.name, "exponents": list(exp),
               "positive_roots": len(rs.positive_roots)}
        _print(doc, args.json, [
            f"{rs.name}{note}: exponents {', '.join(map(str, exp))}; "
            f"{len(rs.positive_roots)} positive roots",
        ])
    elif args.action == "dim":
        doc = {"type": rs.name, "dimension": algebra_dimension(rs)}
        _print(doc, args.json, [f"dim {rs.name}{note} = {algebra_dimension(rs)}"])
    elif args.action == "weyl-dim":
        if args.weight is None:
            raise ValueError("weyl-dim needs --weight c1,c2,...")
        weight = list(args.weight)
        dim = weyl_dimension(rs, weight)
        doc = {"type": rs.name, "weight": weight, "dimension": dim}
        _print(doc, args.json, [f"{rs.name}{note}, weight {weight}: dimension {dim}"])
    elif args.action == "irreps":
        if args.dim is None:
            raise ValueError("irreps needs --dim K")
        weights = irreps_of_dimension(rs, args.dim)
        doc = {"type": rs.name, "dimension": args.dim,
               "weights": [list(w) for w in weights]}
        _print(doc, args.json, [
            f"{rs.name}{note}: irreducibles of dimension {args.dim}: "
            + (", ".join(str(list(w)) for w in weights) if weights else "none"),
        ])
    return 0


def _coset_cap():
    """KATZMOD_COSET_CAP, stripped, as a positive int; None when it is unset."""
    raw = os.environ.get("KATZMOD_COSET_CAP")
    try:
        cap = None if raw is None else _integer(raw.strip())
    except argparse.ArgumentTypeError:
        cap = 0  # refused below, with every other cap below 1
    if cap is not None and cap < 1:
        raise ValueError(f"coset cap must be a positive integer, got {raw!r} "
                         "from the environment variable KATZMOD_COSET_CAP")
    return cap


def cmd_subgroup(args):
    gens = resolve_subgroup(args.subgroup)
    cap = _coset_cap()
    try:
        table = coset_enumerate(gens, cap=cap)
    except InfiniteIndex:
        raise
    except CosetCapExceeded as exc:
        why = f"cap {cap} from KATZMOD_COSET_CAP" if cap is not None else \
            f"default cap {DEFAULT_COSET_CAP}; set KATZMOD_COSET_CAP to raise it"
        raise CosetCapExceeded(f"{exc} ({why})") from None
    inv = invariants(table)
    doc = {"name": gens.name, **inv._asdict()}  # json writes the widths tuple as a list
    lines = [
        f"subgroup {gens.name}:",
        f"  index: {inv.index}",
        f"  cusp widths: {', '.join(map(str, inv.cusp_widths))}",
        f"  elliptic points: nu2 = {inv.nu2}, nu3 = {inv.nu3}",
        f"  genus: {inv.genus}",
        f"  level (lcm of widths): {inv.level}",
        f"  congruence subgroup: {'yes' if inv.congruence else 'no'}",
    ]
    if args.dims:
        rows = [{"k": k, "dim_cusp_forms": dim_cusp_forms(inv, k + 2), "dim_rho_prim": prim}
                for k, prim in dim_rho_prim(table, args.kmax).items()]
        doc["dims"] = rows
        lines.append(f"  {'k':>4} {'dim S_(k+2)':>12} {'dim rho_prim':>13}")
        for row in rows:
            lines.append(f"  {row['k']:>4} {row['dim_cusp_forms']:>12} {row['dim_rho_prim']:>13}")
    _print(doc, args.json, lines)
    return 0


def cmd_verify_paper(args):
    rows = verify.run(only=args.only)
    doc = {"checks": [{"section": r.section, "claim": r.claim, "expected": r.expected,
                       "computed": r.computed, "ok": r.ok} for r in rows],
           "passed": sum(1 for r in rows if r.ok),
           "failed": sum(1 for r in rows if not r.ok)}
    lines = []
    width = max(len(r.claim) for r in rows)
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"[{status}] {r.claim:<{width}}  expected: {r.expected}  computed: {r.computed}")
    lines.append(f"{doc['passed']} passed, {doc['failed']} failed")
    _print(doc, args.json, lines)
    return 0 if doc["failed"] == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="katzmod",
        description="Exact computations: principal sl2-triples, root-system exponents, "
                    "the one-block-nilpotent classification, and subgroups of PSL2(Z).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="simple algebras passing the exponent scan at dimension k")
    p.add_argument("--k", type=_k_at_least_2, required=True)
    p.add_argument("--ht-weights", type=_int_list,
                   help="comma-separated Hodge-Tate weights, e.g. 0,-5")
    p.add_argument("--symplectic", action="store_true",
                   help="apply the alternating-form filter (even k only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sl2", help="principal sl2-triple computations in sl_k")
    p.add_argument("--k", type=_k_at_least_2, required=True)
    p.add_argument("action", choices=["decompose", "identities", "form"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sl2)

    p = sub.add_parser("rootsys", help="root system data for one simple type")
    p.add_argument("--type", required=True, choices=list(SIMPLE_TYPES))
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("action", choices=["exponents", "dim", "weyl-dim", "irreps"])
    p.add_argument("--weight", type=_int_list, help="fundamental-weight coordinates, e.g. 1,0")
    p.add_argument("--dim", type=_integer, help="target dimension for the irreps action")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rootsys)

    p = sub.add_parser("subgroup", help="invariants of a finite-index subgroup of PSL2(Z)")
    p.add_argument("subgroup", help="preset name (gamma43, gamma52, gamma711) or JSON file path")
    p.add_argument("--dims", action="store_true", help="print dimension tables")
    p.add_argument("--kmax", type=_k_at_least_2, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("verify-paper", help="recompute and check every reproduced value")
    p.add_argument("--only", choices=sorted(verify.SECTIONS), help="run one section")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_paper)
    # argparse reads a token such as -5,0 as an option unless the parser's
    # negative-number pattern matches it; no option of these two starts with
    # - and a digit, so such a token is a value
    for name in ("classify", "rootsys"):
        sub.choices[name]._negative_number_matcher = re.compile(r"-\d")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CosetCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
