"""Span tracing of galekit from outside: wrappers around each module's
public functions, installed only for the traced run.

A span is ``(name, start, end, parent, job, info)``: ``parent`` is the
index of the enclosing span (-1 at a job's root), ``job`` the index of the
job that caused it, and ``info`` a small tuple of exact counts taken at the
boundary.  A layer's busy time is the sum of its spans' durations; its self
time subtracts the time covered by its direct child spans.
"""

from __future__ import annotations

import collections
import functools
import gzip
import sys
from time import perf_counter

from galekit import cli, codes, curves, detnl, exactla, gale, pointconfig, scenarios, selfassoc

from workloads import projective_size

SMALL_ENTRIES = 100  # rows x cols at or below this is a "small" elimination


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.open = collections.Counter()
        self.job = -1
        self._undo: list = []

    def span(self, name, fn, info=None):
        spans, stack, open_names = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            open_names[name] += 1
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                open_names[name] -= 1
                parent = stack[-1] if stack else -1
                extra = info(self, args, kwargs, out) if info else None
                spans[index] = (name, start, end, parent, self.job, extra)

        return wrapper

    def install(self):
        """Wrap every target; module functions are replaced wherever a
        galekit module bound them by name."""
        modules = [m for n, m in sys.modules.items() if n == "galekit" or n.startswith("galekit.")]
        for owner, attr, name, info in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self.span(name, original, info)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """All spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\tinfo\n")
            for i, (name, start, end, parent, job, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\t{extra}\n")


def _rref_info(tracer, args, kwargs, out):
    if out is None:
        return None
    m = args[0]
    kind = "qq" if m.field.kind == "rational" else "gf"
    deficient = out.rank < min(m.rows, m.cols)
    return kind, m.rows * m.cols, deficient, tracer.open["pointconfig.scan"] > 0


def _kernel_info(tracer, args, kwargs, out):
    return tracer.open["gale.transform"] + tracer.open["gale.duality_defects"] > 0


def _words_info(tracer, args, kwargs, out):
    code = args[0]
    return code.field.p ** code.k - 1


def _locus_info(tracer, args, kwargs, out):
    phi = args[0]
    side = args[1] if len(args) > 1 else kwargs["side"]
    return projective_size(phi.field.p, phi.r if side == "V" else phi.s)


def _base_locus_info(tracer, args, kwargs, out):
    return projective_size(args[0].p, args[1])


def _sample_info(tracer, args, kwargs, out):
    return None if out is None else out[1]


def _seven_info(tracer, args, kwargs, out):
    return None if out is None else out.attempts


PC = pointconfig.PointConfiguration
TARGETS = (
    (exactla.ExactMatrix, "rref", "exactla.rref", _rref_info),
    (exactla.ExactMatrix, "kernel_basis", "exactla.kernel", _kernel_info),
    (exactla.ExactMatrix, "det", "exactla.det", None),
    (exactla.ExactMatrix, "__matmul__", "exactla.matmul", None),
    (PC, "is_linearly_general_position", "pointconfig.scan", None),
    (PC, "is_stable", "pointconfig.scan", None),
    (PC, "is_semistable", "pointconfig.scan", None),
    (PC, "partition_into_two_bases", "pointconfig.scan", None),
    (PC, "canonical_form", "pointconfig.canonical_form", None),
    (PC, "veronese", "pointconfig.veronese", None),
    (pointconfig, "is_equivalent_labeled", "pointconfig.equivalence", None),
    (gale, "gale_transform", "gale.transform", None),
    (gale, "duality_defects", "gale.duality_defects", None),
    (gale, "gale_is_very_ample", "pointconfig.scan", None),
    (selfassoc, "self_association_witness", "selfassoc.witness", None),
    (selfassoc.DiagonalWitness, "verify", "selfassoc.verify", None),
    (selfassoc, "complete_to_self_associated", "selfassoc.complete", None),
    (curves, "fit_rational_normal_curve", "curves.fit", None),
    (curves, "goppa_dual_check", "curves.goppa", None),
    (curves.RncParametrization, "contains", "curves.contains", None),
    (codes, "grs_dual_multipliers", "codes.grs_dual_multipliers", None),
    (codes, "min_distance", "codes.min_distance", _words_info),
    (detnl, "determinantal_locus", "detnl.locus", _locus_info),
    (detnl, "random_rational_locus_tensor", "detnl.sample", _sample_info),
    (detnl, "verify_veronese_gale", "detnl.verify", None),
    (scenarios, "quadric_net_base_locus", "scenarios.base_locus", _base_locus_info),
    (scenarios, "demo_seven_p3", "scenarios.seven_p3", _seven_info),
    (cli, "main", "cli.main", None),
)

# (metric, unit): every per-layer metric the traced run reports
LAYER_METRICS = (
    *((f"exactla.rref.{stat}.{kind}", unit)
      for kind in ("qq", "gf")
      for stat, unit in (("calls", "count"), ("busy_s", "s"), ("entries", "count"))),
    *((f"exactla.rref.{stat}.{shape}", unit)
      for shape in ("small", "wide")
      for stat, unit in (("calls", "count"), ("busy_s", "s"))),
    ("exactla.det.calls", "count"), ("exactla.det.busy_s", "s"),
    ("exactla.matmul.calls", "count"), ("exactla.matmul.busy_s", "s"),
    ("pointconfig.scan.calls", "count"), ("pointconfig.scan.self_s", "s"),
    ("pointconfig.scan.subsets", "count"), ("pointconfig.scan.deficient_share", "ratio"),
    ("pointconfig.canonical_form.calls", "count"), ("pointconfig.canonical_form.self_s", "s"),
    ("pointconfig.equivalence.self_s", "s"), ("pointconfig.veronese.self_s", "s"),
    ("gale.transform.calls", "count"), ("gale.transform.self_s", "s"),
    ("gale.duality_defects.calls", "count"), ("gale.duality_defects.self_s", "s"),
    ("gale.kernel.calls", "count"),
    ("selfassoc.witness.calls", "count"), ("selfassoc.witness.self_s", "s"),
    ("selfassoc.verify.calls", "count"), ("selfassoc.verify.busy_s", "s"),
    ("selfassoc.complete.calls", "count"), ("selfassoc.complete.self_s", "s"),
    ("curves.fit.self_s", "s"), ("curves.goppa.self_s", "s"), ("curves.contains.calls", "count"),
    ("codes.grs_dual_multipliers.self_s", "s"),
    ("codes.min_distance.busy_s", "s"), ("codes.min_distance.words", "count"),
    ("detnl.locus.calls", "count"), ("detnl.locus.busy_s", "s"), ("detnl.locus.points", "count"),
    ("detnl.sample.attempts", "count"), ("detnl.sample.self_s", "s"),
    ("detnl.verify.self_s", "s"),
    ("scenarios.base_locus.busy_s", "s"), ("scenarios.base_locus.points", "count"),
    ("scenarios.seven_p3.attempts", "count"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def layer_totals(spans, base: int = 0) -> dict:
    """Sum every per-layer quantity over a contiguous run of spans, the
    first of which has index ``base`` in the tracer (no averaging)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= base:
            child[parent - base] += end - start
    t = collections.defaultdict(float)
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        t[f"{name}.calls"] += 1
        t[f"{name}.busy_s"] += dur
        t[f"{name}.self_s"] += dur - child[i]
        if name == "exactla.rref" and info is not None:
            kind, entries, deficient, in_scan = info
            shape = "small" if entries <= SMALL_ENTRIES else "wide"
            for key in (kind, shape):
                t[f"exactla.rref.calls.{key}"] += 1
                t[f"exactla.rref.busy_s.{key}"] += dur
            t[f"exactla.rref.entries.{kind}"] += entries
            if in_scan:
                t["pointconfig.scan.subsets"] += 1
                t["pointconfig.scan.deficient"] += deficient
        elif name == "exactla.kernel" and info:
            t["gale.kernel.calls"] += 1
        elif name == "codes.min_distance" and info is not None:
            t["codes.min_distance.words"] += info
        elif name in ("detnl.locus", "scenarios.base_locus"):
            t[f"{name}.points"] += info
        elif name in ("detnl.sample", "scenarios.seven_p3") and info is not None:
            t[f"{name}.attempts"] += info
    return t


def work_counts(spans, base: int) -> dict:
    """Exact wrapper counts of one round; these must repeat run to run."""
    t = layer_totals(spans, base)
    return {
        "rref_calls": int(t["exactla.rref.calls"]),
        "entries": int(t["exactla.rref.entries.qq"] + t["exactla.rref.entries.gf"]),
        "scan_subsets": int(t["pointconfig.scan.subsets"]),
        "points": int(t["detnl.locus.points"] + t["scenarios.base_locus.points"]),
        "words": int(t["codes.min_distance.words"]),
    }


def layer_metrics(spans, rounds: int, overhead_share: float) -> dict:
    """Per-layer metrics as totals per round of the workload; the two
    shares are ratios over the whole traced run."""
    t = layer_totals(spans)
    values = {name: t[name] / rounds for name, _ in LAYER_METRICS}
    subsets = t["pointconfig.scan.subsets"]
    values["pointconfig.scan.deficient_share"] = (
        t["pointconfig.scan.deficient"] / subsets if subsets else 0.0
    )
    values["trace.overhead_share"] = overhead_share
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
