"""Command-line front end.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
tool error.  Output is JSON on stdout unless --out is given; the environment
variable ULTRAFREE_OUT names a default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .campaign import STAGES, CampaignConfig, emit_report, run_campaign
from .chain import basis_constant, basis_vectors, build_chain, verify_chain
from .ell1 import pipeline, three_point_report
from .freespace import free_norm_certificate
from .metric import CertificationError, StructuralError, validate
from .rational import parse_rational
from .rtree import branching_points, dendrogram, retract_to_space, verify_retraction_claims
from .serialize import (
    IngestError,
    dump_json,
    function_to_json,
    ingest,
    load_space,
    vector_from_json,
    vector_to_json,
)

import json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrafree",
        description="Exact transport norms, retraction bases, and tree embeddings "
        "over finite ultrametric spaces.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="input format (default: by file suffix)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized batteries")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="metric/ultrametric/dyadic triple checks")
    p.add_argument("space")

    p = sub.add_parser("norm", help="transport norm of a coefficient vector")
    p.add_argument("space")
    p.add_argument("--vector", required=True, help="JSON file mapping labels to rationals")

    p = sub.add_parser("basis", help="retraction chain, its basis, and the basis constant")
    p.add_argument("space")
    p.add_argument("--ordering", default=None,
                   help="comma-separated point indices starting at 0 (default: input order)")
    p.add_argument("--shuffle", action="store_true", help="use a seed-shuffled ordering")

    p = sub.add_parser("embed", help="branching points, dendrogram, and retraction bounds")
    p.add_argument("space")

    p = sub.add_parser("l1check", help="full pipeline report for one space")
    p.add_argument("space")
    p.add_argument("--oracle-vectors", type=int, default=25)
    p.add_argument("--orthant-budget", type=int, default=1024)

    p = sub.add_parser("threepoint", help="three-point norms and grid infeasibility search")
    p.add_argument("--s", required=True, help="side length in (0,1], e.g. 1/2")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--beta", action="append", default=None, help="extra beta grid point (repeatable)")

    p = sub.add_parser("campaign", help="randomized campaign over generated instances")
    p.add_argument("--sizes", default="3,4,5,6", help="comma list or a-b range, e.g. 3-8")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--stages", default="validate,basis,embed",
                   help=f"comma subset of {','.join(STAGES)} or 'all'")
    return parser


def _out_path(args):
    """--out if given, else <command>.json under $ULTRAFREE_OUT if set, else None (stdout)."""
    if args.out is None and os.environ.get("ULTRAFREE_OUT"):
        return str(Path(os.environ["ULTRAFREE_OUT"]) / f"{args.command}.json")
    return args.out


def _emit(data, args) -> None:
    out = _out_path(args)
    text = dump_json(data, out)
    if out is None:
        sys.stdout.write(text)


def _parse_sizes(text: str) -> tuple[int, ...]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(s) for s in text.split(",") if s)


def _cmd_validate(args) -> int:
    space = load_space(args.space, args.format)
    report = validate(space)
    _emit(report, args)
    return 0 if report.is_metric and report.is_ultrametric else 1


def _cmd_norm(args) -> int:
    space = ingest(args.space, args.format)
    with open(args.vector) as handle:
        data = json.load(handle, parse_float=Fraction)
    vector = vector_from_json(space, data)
    cert = free_norm_certificate(space, vector)
    _emit(
        {
            "value": cert.value,
            "primal_flow": [
                {"from": space.labels[i], "to": space.labels[j], "amount": amt}
                for i, j, amt in cert.flow
            ],
            "dual_certificate": function_to_json(space, cert.potential),
        },
        args,
    )
    return 0


def _cmd_basis(args) -> int:
    space = ingest(args.space, args.format)
    if args.ordering is not None:
        ordering = tuple(int(k) for k in args.ordering.split(","))
    elif args.shuffle:
        import random

        rest = list(range(1, len(space)))
        random.Random(args.seed).shuffle(rest)
        ordering = (0, *rest)
    else:
        ordering = tuple(range(len(space)))
    chain = build_chain(space, ordering)
    report = verify_chain(chain)
    family = basis_vectors(chain)
    constant = basis_constant(space, family)
    _emit(
        {
            "ordering": list(ordering),
            "index_table": [list(row) for row in chain.ranks],
            "basis_vectors": [vector_to_json(space, v) for v in family.vectors],
            "basis_norms": list(family.norms),
            "basis_constant": constant,
            "violations": report,
        },
        args,
    )
    return 0 if report.passed and constant == 1 else 1


def _cmd_embed(args) -> int:
    space = ingest(args.space, args.format)
    tree = dendrogram(space)
    branching = branching_points(space)
    claims = verify_retraction_claims(space)
    retraction = {
        f"{space.labels[p.anchor]}@{p.height}": space.labels[retract_to_space(space, p, branching)]
        for p in branching
    }
    _emit(
        {
            "branching_points": [
                {"anchor": space.labels[p.anchor], "height": p.height} for p in branching
            ],
            "dendrogram": {
                "nodes": [
                    {"anchor": space.labels[p.anchor], "height": p.height} for p in tree.nodes
                ],
                "parent": list(tree.parent),
                "edge_lengths": list(tree.edge_length),
            },
            "retraction_table": retraction,
            "attained_lipschitz_constant": claims.attained_constant,
            "claim_checks": claims,
        },
        args,
    )
    return 0 if claims.passed else 1


def _cmd_l1check(args) -> int:
    space = ingest(args.space, args.format)
    report = pipeline(
        space,
        oracle_vectors=args.oracle_vectors,
        orthant_budget=args.orthant_budget,
        seed=args.seed,
    )
    _emit(report, args)
    return 0 if report.passed else 1


def _cmd_threepoint(args) -> int:
    betas = [parse_rational(b) for b in args.beta] if args.beta else None
    report = three_point_report(parse_rational(args.s), betas, args.resolution)
    _emit(report, args)
    return 0 if report.min_violation > 0 else 1


def _cmd_campaign(args) -> int:
    stages = tuple(STAGES) if args.stages == "all" else tuple(
        s.strip() for s in args.stages.split(",") if s.strip()
    )
    out = _out_path(args)
    config = CampaignConfig(
        sizes=_parse_sizes(args.sizes),
        seeds=args.seeds,
        stages=stages,
        out=out,
        base_seed=args.seed,
    )
    report = run_campaign(config)
    text = emit_report(report, out)
    if out is None:
        sys.stdout.write(text)
    return 0 if report.passed else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "norm": _cmd_norm,
    "basis": _cmd_basis,
    "embed": _cmd_embed,
    "l1check": _cmd_l1check,
    "threepoint": _cmd_threepoint,
    "campaign": _cmd_campaign,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (IngestError, StructuralError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
