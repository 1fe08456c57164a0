"""The three benchmark workloads: seeded inputs, jobs, and their checks.

A workload is a fixed list of job kinds and shapes (one *round*).  Round k
draws its inputs from ``random.Random(f"galekit-bench-{workload}-{seed}-{k}")``
before it starts, as plain integers: rounds differ from one another, round k
is the same in every run with the same seed, and each job builds its galekit
objects afresh.

Each job is a pair of functions:

* ``execute(spec)`` calls galekit and is the only part that is timed;
* ``check(spec, result)`` returns ``(material, problem, counts)``: the
  canonical text of the outputs that goes into the job digest, a message
  when an invariant is broken (else None), and exact work counts taken
  from the inputs and reported outputs.

The benchmark calls galekit through module attributes (``gale.duality_defects``
and so on), never through names bound at import, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from galekit import (
    cli, codes, curves, errors, exactla, gale, generators, pointconfig, scenarios, selfassoc,
)

QQ = exactla.QQ
MERSENNE_31 = 2**31 - 1

@dataclass(frozen=True)
class Job:
    kind: str
    spec: tuple
    execute: Callable
    check: Callable


def field_of(name: str):
    return QQ if name == "QQ" else exactla.GF(int(name[2:]))


def plain_rows(cfg) -> tuple:
    """Coordinates as Python ints (rational inputs here are integral)."""
    return tuple(tuple(int(x) for x in row) for row in cfg.coords.entries)


def random_lgp_rows(rng, r: int, gamma: int) -> tuple:
    """Integer points of P^r, entries in -9..9, with every (r+1)-subset
    independent (checked by exact integer determinants)."""
    while True:
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(r + 1)) for _ in range(gamma))
        if all(
            exactla.ExactMatrix.from_rows(QQ, [rows[i] for i in s]).det() != 0
            for s in combinations(range(gamma), r + 1)
        ):
            return rows


def projective_size(p: int, dim: int) -> int:
    """Number of points of P^dim(F_p)."""
    return (p ** (dim + 1) - 1) // (p - 1)


# -- subset-scans --------------------------------------------------------------

# r in 1..4, gamma in r+3..10; alternate shapes run over QQ, the others over
# GF(101), so the round is half rational and half modular.  Seven shapes
# with r >= 2 are "crowded": gamma-2 of their points lie on one hyperplane,
# so scans meet rank-deficient subsets and reach their non-LGP, unstable
# and not-very-ample verdicts, which random points almost never do.
SUBSET_SHAPES = tuple(
    (r, gamma, "QQ" if i % 2 == 0 else "GF101", r >= 2 and (i // 2) % 2 == 1)
    for i, (r, gamma) in enumerate(
        (r, gamma) for r in range(1, 5) for gamma in range(r + 3, 11)
    )
)


def crowded_rows(rng, field, r: int, gamma: int) -> tuple:
    """gamma-2 points on a random hyperplane of P^r and two more anywhere,
    spanning P^r."""
    scalar = generators.random_scalar
    while True:
        basis = [[int(scalar(rng, field)) for _ in range(r + 1)] for _ in range(r)]
        rows = [
            [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(r + 1)]
            for coeffs in ([int(scalar(rng, field)) for _ in range(r)] for _ in range(gamma - 2))
        ]
        rows += [[int(scalar(rng, field)) for _ in range(r + 1)] for _ in range(2)]
        try:
            cfg = pointconfig.PointConfiguration.new(field, r, rows)
        except (errors.ZeroPoint, errors.DuplicatePoint):
            continue
        if cfg.is_nondegenerate():
            return plain_rows(cfg)


def subset_battery(spec):
    fname, r, gamma, rows = spec
    cfg = pointconfig.PointConfiguration.new(field_of(fname), r, rows)
    defects = [
        gale.duality_defects(cfg, subset)
        for size in range(gamma + 1)
        for subset in combinations(range(gamma), size)
    ]
    split = semistable = None
    if gamma == 2 * r + 2:
        split = cfg.partition_into_two_bases()
        semistable = cfg.is_semistable()
    return (
        defects,
        split,
        semistable,
        cfg.is_stable(),
        cfg.is_linearly_general_position(),
        gale.gale_is_very_ample(cfg),
    )


def check_subset_battery(spec, result):
    _, r, gamma, _ = spec
    defects, split, semistable, stable, lgp, very_ample = result
    subsets = [s for size in range(gamma + 1) for s in combinations(range(gamma), size)]
    problem = None
    if any(a != b for a, b in defects):
        problem = "span failure differs from condition failure"
    elif semistable is not None and (split is not None) != semistable:
        problem = "two-bases split disagrees with semistability"
    else:
        # GIT bounds over all proper nonempty subsets, from the span ranks
        ranks = {s: r + 1 - a for s, (a, _) in zip(subsets, defects)}
        proper = [s for s in subsets if 0 < len(s) < gamma]
        brute_stable = all(ranks[s] * gamma > len(s) * (r + 1) for s in proper)
        brute_semi = all(ranks[s] * gamma >= len(s) * (r + 1) for s in proper)
        if stable != brute_stable:
            problem = "is_stable disagrees with the subset ranks"
        elif semistable is not None and semistable != brute_semi:
            problem = "is_semistable disagrees with the subset ranks"
        elif lgp != all(ranks[s] == r + 1 for s in subsets if len(s) == r + 1):
            problem = "is_linearly_general_position disagrees with the subset ranks"
        elif very_ample != all(ranks[s] == r + 1 for s in subsets if len(s) == gamma - 2):
            problem = "gale_is_very_ample disagrees with the subset ranks"
    material = repr((defects, split, semistable, stable, lgp, very_ample))
    return material, problem, {"subsets": 2**gamma}


def subset_scans_round(rng):
    jobs = []
    for r, gamma, fname, crowded in SUBSET_SHAPES:
        field = field_of(fname)
        if crowded:
            rows = crowded_rows(rng, field, r, gamma)
        else:
            rows = plain_rows(generators.random_configuration(rng, field, r, gamma))
        kind = f"battery-r{r}-g{gamma}-{fname}" + ("-crowded" if crowded else "")
        jobs.append(Job(kind, (fname, r, gamma, rows), subset_battery, check_subset_battery))
    return jobs


# -- wide-eliminations ---------------------------------------------------------


def involution(spec):
    fname, r, rows = spec
    cfg = pointconfig.PointConfiguration.new(field_of(fname), r, rows)
    first = gale.gale_transform(cfg)
    second = gale.gale_transform(first.transform)
    return first, second, pointconfig.is_equivalent_labeled(second.transform, cfg)


def check_involution(spec, result):
    first, second, eq = result
    problem = None if eq is pointconfig.Equivalence.EQUIVALENT else f"involution gave {eq}"
    material = first.transform.coords.to_text() + "|" + second.transform.coords.to_text()
    return material, problem, {"points": len(spec[2])}


def completion(spec):
    r, rows, seed = spec
    cfg = pointconfig.PointConfiguration.new(QQ, r, rows)
    return selfassoc.complete_to_self_associated(cfg, seed=seed)


def check_completion(spec, result):
    r, rows, _ = spec
    problem = None
    if result.status is not selfassoc.CompletionStatus.COMPLETED:
        problem = f"completion status {result.status}"
    elif result.configuration.gamma != 2 * r + 2:
        problem = "completion has the wrong number of points"
    material = repr(result.status)
    if result.configuration is not None:
        material += "|" + result.configuration.coords.to_text() + "|" + repr(result.form.diagonal)
    return material, problem, {"points": len(rows)}


def eleven_p6(spec):
    return scenarios.demo_eleven_p6(spec[0])


def check_eleven_p6(spec, result):
    problem = None if result.plane_is_unique else "added plane depends on the candidate pool"
    return result.plane.to_text(), problem, {"points": 11}


def curve_fit(spec):
    r, rows = spec
    cfg = pointconfig.PointConfiguration.new(QQ, r, rows)
    return curves.fit_rational_normal_curve(cfg)


def check_curve_fit(spec, result):
    problem = None if result.degree == spec[0] else "fitted curve has the wrong degree"
    return result.matrix.to_text(), problem, {"points": len(spec[1])}


def goppa(spec):
    rows, h = spec
    params = pointconfig.PointConfiguration.new(QQ, 1, rows)
    return curves.goppa_dual_check(params, h)


def check_goppa(spec, result):
    eq = result.equivalence
    problem = None if eq is pointconfig.Equivalence.EQUIVALENT else f"Goppa duality gave {eq}"
    return result.gale_side.coords.to_text(), problem, {"points": len(spec[0])}


def grs_duality(spec):
    p, values, multipliers, k = spec
    field = exactla.GF(p)
    points = curves.parameter_list(field, values)
    code_spec = codes.GrsSpec.new(points, multipliers, k)
    duals = codes.grs_dual_multipliers(code_spec)
    redual = codes.grs_code(codes.GrsSpec.new(points, duals, len(values) - k))
    same = codes.same_code(codes.dual_code(codes.grs_code(code_spec)), redual)
    return duals, same


def check_grs_duality(spec, result):
    duals, same = result
    problem = None
    if not same:
        problem = "dual multipliers do not give the dual code"
    elif any(x == 0 for x in duals):
        problem = "a dual multiplier vanished"
    return repr(duals), problem, {"points": len(spec[1])}


def wide_eliminations_round(rng):
    jobs = []
    for r in (6, 8, 10):
        for fname in ("QQ", f"GF{MERSENNE_31}"):
            cfg = generators.random_gale_friendly_configuration(
                rng, field_of(fname), r, 2 * r + 4
            )
            jobs.append(Job(f"involution-r{r}-{fname}", (fname, r, plain_rows(cfg)),
                            involution, check_involution))
    # r+1+d points with C(d, 2) <= r, the largest such d
    for r, gamma in ((3, 7), (4, 8), (5, 9), (6, 11)):
        spec = (r, random_lgp_rows(rng, r, gamma), rng.randrange(10**6))
        jobs.append(Job(f"complete-r{r}", spec, completion, check_completion))
    jobs.append(Job("eleven-p6", (rng.randrange(10**6),), eleven_p6, check_eleven_p6))
    for r in (4, 5, 6):
        jobs.append(Job(f"fit-r{r}", (r, random_lgp_rows(rng, r, r + 3)), curve_fit, check_curve_fit))
    for n in (10, 11, 12):
        params = plain_rows(generators.random_parameters(rng, QQ, n, allow_infinity=True))
        for h in range(1, n - 2):
            jobs.append(Job(f"goppa-n{n}", (params, h), goppa, check_goppa))
    for n, k in ((16, 4), (16, 8), (24, 6), (24, 12), (30, 10), (30, 15)):
        values = tuple(sorted(rng.sample(range(31), n)))
        multipliers = tuple(rng.randrange(1, 31) for _ in range(n))
        jobs.append(Job(f"grs-n{n}", (31, values, multipliers, k), grs_duality, check_grs_duality))
    return jobs


# -- field-enumeration ---------------------------------------------------------


def gale_cli(spec):
    argv = spec[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["--format", "json", *argv])
    return status, out.getvalue()


def _report(result):
    status, text = result
    if status != 0:
        return None, f"gale exited with {status}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError:
        return None, "gale printed no JSON report"


def check_detnl(spec, result):
    _, r, s, p = spec
    report, problem = _report(result)
    if report is None:
        return "", problem, {}
    degree = math.comb(r + s, s)
    if report.get("equivalence") != "equivalent":
        problem = "Veronese Gale duality not certified"
    elif report["expected_degree"] != degree or report["locus_sizes"] != [degree, degree]:
        problem = f"loci {report['locus_sizes']}, expected {degree} points each"
    keys = ("tensor", "sampling_attempts", "locus_sizes", "equivalence")
    material = json.dumps([report.get(key) for key in keys])
    # the final verification scans P^r and P^s once each
    return material, problem, {"points": projective_size(p, r) + projective_size(p, s)}


def check_seven_p3(spec, result):
    p = spec[1]
    report, problem = _report(result)
    if report is None:
        return "", problem, {}
    if report.get("status") != "verified" or report.get("projection_equals_gale") != "equivalent":
        problem = "projection from the eighth point not certified"
    elif report["base_locus_size"] != 8:
        problem = f"base locus has {report['base_locus_size']} points"
    keys = ("attempts", "points", "eighth_point", "base_locus_size", "projection_equals_gale")
    material = json.dumps([report.get(key) for key in keys])
    # every sample scans P^3(F_p) for the base locus of its quadric net
    return material, problem, {"points": report["attempts"] * projective_size(p, 3)}


def check_mindist(spec, result):
    _, p, n, k = spec
    report, problem = _report(result)
    if report is None:
        return "", problem, {}
    if report.get("min_distance") != n - k + 1 or report.get("mds") is not True:
        problem = f"GRS code has distance {report.get('min_distance')}, expected {n - k + 1}"
    # every nonzero message; the search stops early only at distance one
    return json.dumps(report.get("min_distance")), problem, {"words": p**k - 1}


def grs_generator_text(p: int, values, multipliers, k: int) -> str:
    """Generator rows m_j * t_j^i, i < k: a GRS code, so MDS."""
    return "\n".join(
        " ".join(str(m * pow(t, i, p) % p) for t, m in zip(values, multipliers))
        for i in range(k)
    )


def field_enumeration_round(rng, workdir, k):
    jobs = []
    for r, s, p in ((2, 2, 31), (2, 2, 101), (2, 2, 211), (2, 3, 31)):
        argv = ["detnl", "verify", "--r", str(r), "--s", str(s), "--p", str(p),
                "--seed", str(rng.randrange(10**6))]
        jobs.append(Job(f"detnl-{r}{s}-p{p}", (argv, r, s, p), gale_cli, check_detnl))
    for _ in range(3):
        argv = ["demo", "seven-p3", "--p", "101", "--seed", str(rng.randrange(10**6))]
        jobs.append(Job("seven-p3", (argv, 101), gale_cli, check_seven_p3))
    for p, n, dimension in ((13, 12, 6), (31, 20, 4)):
        values = sorted(rng.sample(range(p), n))
        multipliers = [rng.randrange(1, p) for _ in range(n)]
        path = os.path.join(workdir, f"grs-{k}-p{p}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(grs_generator_text(p, values, multipliers, dimension) + "\n")
        argv = ["code", "mindist", path, "--p", str(p)]
        jobs.append(Job(f"mindist-p{p}", (argv, p, n, dimension), gale_cli, check_mindist))
    return jobs


def build_round(workload: str, seed: int, k: int, workdir: str) -> list[Job]:
    """The jobs of round k for this workload and seed; `workdir` receives
    the generator files of `field-enumeration`."""
    rng = random.Random(f"galekit-bench-{workload}-{seed}-{k}")
    if workload == "subset-scans":
        return subset_scans_round(rng)
    if workload == "wide-eliminations":
        return wide_eliminations_round(rng)
    return field_enumeration_round(rng, workdir, k)
