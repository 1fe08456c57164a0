"""The Gale transform and its rank-duality consequences.

For gamma = r+s+2 labeled points in P^r with coordinate matrix G, the
transform is the configuration in P^s whose rows are a basis of
ker(G^T), taken in the canonical reduced-row-echelon normalization so
the output is a function of the input.  The identity diagonal witness
G^T . I . G' = 0 is verified on every call.  The kernel of G^T is cached
on the configuration, and :func:`duality_defects` reads both sides of the
rank duality from per-configuration subset-rank tables: the first call pays
for both walks, and more than 20 points are refused with ``TooLarge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import (
    Degenerate,
    GaleDegenerate,
    GaleNonReduced,
    VerificationFailed,
    WrongDegree,
)
from .exactla import first_proportional_pair, row_is_zero
from .pointconfig import PointConfiguration, validate_subset


@dataclass(frozen=True)
class GaleResult:
    source: PointConfiguration
    transform: PointConfiguration
    witness: tuple  # diagonal entries, all one by convention

    @property
    def s(self) -> int:
        return self.transform.r


def gale_transform(cfg: PointConfiguration) -> GaleResult:
    """Gale transform of gamma >= r+3 points spanning P^r.

    A zero kernel row means some hyperplane contains the other gamma-1
    points; two proportional kernel rows mean some hyperplane contains
    the other gamma-2.  Both degeneracies are reported as errors since
    the output would not be a reduced configuration.
    """
    s = cfg.gamma - cfg.r - 2
    if s < 1:
        raise WrongDegree("need gamma >= r+3 for a transform into P^s, s >= 1")
    transform = cfg.gale_kernel
    k = transform.coords
    f = cfg.field
    for i, row in enumerate(k.entries):
        if row_is_zero(f, row):
            raise GaleDegenerate(i)
    pair = first_proportional_pair(f, k.entries)
    if pair is not None:
        raise GaleNonReduced(*pair)
    if not (cfg.coords.transpose() @ k).is_zero():
        raise VerificationFailed("kernel identity G^T G' = 0 violated")
    return GaleResult(cfg, transform, tuple(f.one for _ in range(cfg.gamma)))


def gale_is_basepoint_free(cfg: PointConfiguration) -> bool:
    """No hyperplane through all but one point (checked over the input field)."""
    return _all_cospanning(cfg, cfg.gamma - 1)


def gale_is_very_ample(cfg: PointConfiguration) -> bool:
    """No hyperplane through all but two points (checked over the input field)."""
    return _all_cospanning(cfg, cfg.gamma - 2)


def _all_cospanning(cfg: PointConfiguration, size: int) -> bool:
    if cfg.coords.rank() < cfg.r + 1:
        raise Degenerate(f"points span only a subspace of P^{cfg.r}")
    if size < 0:
        return True
    return all(
        cfg.coords.submatrix(s).rank() == cfg.r + 1
        for s in combinations(range(cfg.gamma), size)
    )


def duality_defects(cfg: PointConfiguration, subset: Iterable[int]) -> tuple[int, int]:
    """Both sides of the span/conditions rank duality, computed independently.

    Returns (span_failure, condition_failure): the failure of the subset
    to span P^r, and the failure of the complementary labels to impose
    independent conditions on the transform.  The two are equal for every
    subset of every configuration; callers assert that.

    The span side is read from the rank table of the coordinate rows, the
    condition side from that of the kernel rows of G^T, each built once
    per configuration by its own walk: the first call pays for both, later
    calls are lookups.  More than SUBSET_SCAN_LIMIT = 20 points are refused
    with :class:`TooLarge` before either table is allocated.  The kernel
    rows skip the reduced-configuration checks of :func:`gale_transform`,
    so the identity can be probed when the transform has coincident or
    vanishing rows.
    """
    s = validate_subset(subset, cfg.gamma)
    mask = sum(1 << i for i in s)
    span_failure = (cfg.r + 1) - cfg.rank_table[mask]
    complement = ((1 << cfg.gamma) - 1) ^ mask
    condition_failure = (cfg.gamma - len(s)) - cfg.gale_kernel.rank_table[complement]
    return span_failure, condition_failure
