"""Command-line interface.

Every subcommand assembles one flat-ish report dict; the text and JSON
renderings are both derived from it, so they carry identical facts.

Exit codes: 0 for verified/true outcomes, 1 for false/absent outcomes,
2 for errors and indeterminate outcomes, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import codes, curves, detnl, gale, scenarios, selfassoc
from .errors import GaleKitError
from .exactla import GF, QQ, describe_field, matrix_from_text
from .pointconfig import (
    Equivalence,
    PointConfiguration,
    read_configuration,
    write_configuration,
)

EX_TRUE = 0
EX_FALSE = 1
EX_ERROR = 2
EX_USAGE = 64


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def prime(text: str) -> int:
    """Argument type of every ``--p``: a prime below 2^31, else a usage error."""
    try:
        return GF(int(text)).p
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# -- report plumbing -----------------------------------------------------------


def config_facts(cfg: PointConfiguration) -> dict:
    return {
        "field": describe_field(cfg.field),
        "dim": cfg.r,
        "points": cfg.gamma,
        "coordinates": cfg.coords.to_text(),
    }


def scalars_text(field, values) -> str:
    return " ".join(field.format(v) for v in values)


def render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(value, indent + 1))
        elif isinstance(value, str) and "\n" in value:
            lines.append(f"{pad}{key}:")
            for row in value.splitlines():
                lines.append(f"{pad}  {row}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print(render_text(report))


def read_config_file(path: str) -> PointConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return read_configuration(fh.read())


# -- subcommand handlers ----------------------------------------------------------


def cmd_transform(args) -> tuple[int, dict]:
    cfg = read_config_file(args.file)
    result = gale.gale_transform(cfg)
    product = cfg.coords.transpose() @ result.transform.coords
    report = {
        "command": "transform",
        "source": config_facts(cfg),
        "transform": config_facts(result.transform),
        "orthogonality": "G^T G' = 0 verified" if product.is_zero() else "FAILED",
    }
    if args.output:
        text = write_configuration(
            result.transform,
            header=f"Gale transform of {args.file}; G^T G' = 0 verified",
        )
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        report["written"] = args.output
    return EX_TRUE, report


def cmd_check(args) -> tuple[int, dict]:
    cfg = read_config_file(args.file)
    prop = args.property
    report = {"command": f"check {prop}", "source": config_facts(cfg)}
    if prop == "lgp":
        verdict = cfg.is_linearly_general_position()
    elif prop == "stable":
        verdict = cfg.is_stable()
    elif prop == "semistable":
        verdict = cfg.is_semistable()
    elif prop == "two-bases":
        split = cfg.partition_into_two_bases()
        verdict = split is not None
        if split:
            report["first_basis"] = list(split[0])
            report["second_basis"] = list(split[1])
    elif prop == "self-associated":
        result = selfassoc.self_association_witness(cfg)
        report["status"] = result.status.value
        if result.status is selfassoc.Status.WITNESS:
            report["witness"] = scalars_text(cfg.field, result.witness.entries)
            return EX_TRUE, report
        if result.status is selfassoc.Status.INDETERMINATE:
            return EX_ERROR, report
        return EX_FALSE, report
    else:  # ag
        verdict_tri = selfassoc.is_arithmetically_gorenstein(cfg)
        report["status"] = verdict_tri.value
        report["quadric_defect"] = cfg.quadric_defect()
        if verdict_tri is selfassoc.Trilean.INDETERMINATE:
            return EX_ERROR, report
        return EX_TRUE if verdict_tri is selfassoc.Trilean.TRUE else EX_FALSE, report
    report["verdict"] = verdict
    return (EX_TRUE if verdict else EX_FALSE), report


def cmd_complete(args) -> tuple[int, dict]:
    cfg = read_config_file(args.file)
    result = selfassoc.complete_to_self_associated(cfg, seed=args.seed)
    report = {
        "command": "complete",
        "seed": args.seed,
        "status": result.status.value,
        "source": config_facts(cfg),
    }
    if result.status is selfassoc.CompletionStatus.COMPLETED:
        report["completed"] = config_facts(result.configuration)
        report["added_labels"] = list(result.added)
        report["form_diagonal"] = scalars_text(cfg.field, result.form.diagonal)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(
                    write_configuration(
                        result.configuration, header="self-associated completion"
                    )
                )
            report["written"] = args.output
        return EX_TRUE, report
    if result.status is selfassoc.CompletionStatus.NOT_COMPLETABLE:
        return EX_FALSE, report
    return EX_ERROR, report


def cmd_fit_rnc(args) -> tuple[int, dict]:
    cfg = read_config_file(args.file)
    curve = curves.fit_rational_normal_curve(cfg)
    contained = all(curve.contains(cfg.point(i)) for i in range(cfg.gamma))
    report = {
        "command": "fit-rnc",
        "source": config_facts(cfg),
        "degree": curve.degree,
        "matrix": curve.matrix.to_text(),
        "all_points_contained": contained,
    }
    return (EX_TRUE if contained else EX_ERROR), report


def cmd_goppa_check(args) -> tuple[int, dict]:
    field = GF(args.p) if args.p else QQ
    import random

    rng = random.Random(f"galekit-goppa-cli-{args.seed}")
    from .generators import random_parameters

    params = random_parameters(rng, field, args.n)
    result = curves.goppa_dual_check(params, args.h)
    report = {
        "command": "goppa-check",
        "field": describe_field(field),
        "n": result.n,
        "h": result.h,
        "dual_degree": result.dual_degree,
        "parameters": params.coords.to_text(),
        "equivalence": result.equivalence.value,
    }
    ok = result.equivalence is Equivalence.EQUIVALENT
    return (EX_TRUE if ok else EX_ERROR), report


def cmd_code(args) -> tuple[int, dict]:
    if args.code_command == "grs":
        field = GF(args.p)
        points = curves.sample_parameters(field, args.n)
        multipliers = [1] * args.n
        if args.multipliers:
            multipliers = args.multipliers.split()
        spec = codes.GrsSpec.new(points, multipliers, args.k)
        code = codes.grs_code(spec)
        report = {
            "command": "code grs",
            "field": describe_field(field),
            "n": args.n,
            "k": args.k,
            "generator": code.generator.to_text(),
        }
        return EX_TRUE, report
    field = GF(args.p)
    with open(args.file, "r", encoding="utf-8") as fh:
        generator = matrix_from_text(field, fh.read())
    code = codes.LinearCode.new(generator)
    if args.code_command == "dual":
        dual = codes.dual_code(code)
        report = {
            "command": "code dual",
            "field": describe_field(field),
            "n": code.n,
            "k": code.k,
            "dual_k": dual.k,
            "dual_generator": dual.generator.to_text(),
        }
        return EX_TRUE, report
    distance = codes.min_distance(code)
    report = {
        "command": "code mindist",
        "field": describe_field(field),
        "n": code.n,
        "k": code.k,
        "min_distance": distance,
        "mds": distance == code.n - code.k + 1,
    }
    return EX_TRUE, report


def cmd_detnl_verify(args) -> tuple[int, dict]:
    phi, attempts = detnl.random_rational_locus_tensor(
        args.p, args.r, args.s, seed=args.seed, retries=args.retries
    )
    result = detnl.verify_veronese_gale(phi)
    report = {
        "command": "detnl verify",
        "p": args.p,
        "r": args.r,
        "s": args.s,
        "seed": args.seed,
        "sampling_attempts": attempts,
        "expected_degree": result.expected_degree,
        "locus_sizes": [result.locus_v_size, result.locus_w_size],
        "tensor": phi.to_text(),
    }
    if result.skipped:
        report["skipped"] = result.note
        return EX_TRUE, report
    report["equivalence"] = result.equivalence.value
    ok = result.equivalence is Equivalence.EQUIVALENT
    return (EX_TRUE if ok else EX_ERROR), report


def cmd_demo(args) -> tuple[int, dict]:
    if args.demo_command == "pascal":
        result = scenarios.demo_pascal(args.seed)
        report = {
            "command": "demo pascal",
            "seed": args.seed,
            "points": config_facts(result.points),
            "status": result.association.status.value,
            "quadric_defect": result.quadric_defect,
            "arithmetically_gorenstein": result.arithmetically_gorenstein,
        }
        if result.association.witness:
            report["witness"] = scalars_text(
                result.points.field, result.association.witness.entries
            )
        ok = result.association.status is selfassoc.Status.WITNESS
        return (EX_TRUE if ok else EX_FALSE), report
    if args.demo_command == "seven-p3":
        if args.p < 101:
            raise UsageError("demo seven-p3 needs a prime p >= 101")
        result = scenarios.demo_seven_p3(args.p, args.seed)
        report = {
            "command": "demo seven-p3",
            "p": result.p,
            "seed": result.seed,
            "attempts": result.attempts,
            "status": result.status,
            "points": config_facts(result.points),
            "base_locus_size": result.locus_size,
        }
        if result.status == "verified":
            report["eighth_point"] = scalars_text(result.points.field, result.eighth)
            report["projection_equals_gale"] = result.equivalence.value
            return EX_TRUE, report
        return EX_ERROR, report
    result = scenarios.demo_eleven_p6(args.seed)
    completed = result.completions[0]
    report = {
        "command": "demo eleven-p6",
        "seed": args.seed,
        "completions": len(result.completions),
        "added_plane_rref": result.plane.to_text(),
        "plane_is_unique": result.plane_is_unique,
        "completed": config_facts(completed.configuration),
    }
    return (EX_TRUE if result.plane_is_unique else EX_ERROR), report


# -- parser ------------------------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="gale", description=__doc__)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="Gale transform of a configuration file")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the transform as a configuration file")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("check", help="decide a configuration property")
    p.add_argument(
        "property",
        choices=("lgp", "stable", "semistable", "self-associated", "ag", "two-bases"),
    )
    p.add_argument("file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("complete", help="extend to a self-associated set")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_complete)

    p = sub.add_parser("fit-rnc", help="rational normal curve through r+3 points")
    p.add_argument("file")
    p.set_defaults(handler=cmd_fit_rnc)

    p = sub.add_parser("goppa-check", help="degree duality on the projective line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=prime, help="prime field modulus (default: rationals)")
    p.set_defaults(handler=cmd_goppa_check)

    p = sub.add_parser("code", help="linear-code operations")
    code_sub = p.add_subparsers(dest="code_command", required=True)
    g = code_sub.add_parser("grs", help="build a generalized Reed-Solomon code")
    g.add_argument("--p", type=prime, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--multipliers", help="whitespace-separated nonzero scalars")
    g.set_defaults(handler=cmd_code)
    d = code_sub.add_parser("dual", help="dual of a code given by a generator file")
    d.add_argument("file")
    d.add_argument("--p", type=prime, required=True)
    d.set_defaults(handler=cmd_code)
    m = code_sub.add_parser("mindist", help="minimum distance by enumeration")
    m.add_argument("file")
    m.add_argument("--p", type=prime, required=True)
    m.set_defaults(handler=cmd_code)

    p = sub.add_parser("detnl", help="determinantal duality experiments")
    detnl_sub = p.add_subparsers(dest="detnl_command", required=True)
    v = detnl_sub.add_parser("verify", help="verify the Veronese Gale duality")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--s", type=int, required=True)
    v.add_argument("--p", type=prime, required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--retries", type=int, default=50)
    v.set_defaults(handler=cmd_detnl_verify)

    p = sub.add_parser("demo", help="end-to-end demonstration scenarios")
    demo_sub = p.add_subparsers(dest="demo_command", required=True)
    a = demo_sub.add_parser("pascal", help="random conic sextuple is self-associated")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(handler=cmd_demo)
    b = demo_sub.add_parser("seven-p3", help="eighth-point projection experiment")
    b.add_argument("--p", type=prime, default=101)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(handler=cmd_demo)
    c = demo_sub.add_parser("eleven-p6", help="distinguished plane of a completion")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(handler=cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    try:
        status, report = args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except GaleKitError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_ERROR
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_ERROR
    emit(report, args.format)
    return status


if __name__ == "__main__":
    sys.exit(main())
