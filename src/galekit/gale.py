"""The Gale transform and its rank-duality consequences.

For gamma = r+s+2 labeled points in P^r with coordinate matrix G, the
transform is the configuration in P^s whose rows are a basis of
ker(G^T), taken in the canonical reduced-row-echelon normalization so
the output is a function of the input.  The identity diagonal witness
G^T . I . G' = 0 is verified on every call.
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
from .exactla import ExactMatrix, first_proportional_pair, row_is_zero
from .pointconfig import PointConfiguration, validate_subset


@dataclass(frozen=True)
class GaleResult:
    source: PointConfiguration
    transform: PointConfiguration
    witness: tuple  # diagonal entries, all one by convention

    @property
    def s(self) -> int:
        return self.transform.r


def _kernel_rows(cfg: PointConfiguration) -> ExactMatrix:
    """Kernel of G^T arranged as gamma rows of gamma - r - 1 entries.

    A wider kernel means rank(G) < r + 1, which the one elimination
    behind the kernel basis shows without a separate rank pass.
    """
    k = cfg.coords.transpose().kernel_basis()
    if k.cols > cfg.gamma - cfg.r - 1:
        raise Degenerate(f"points span only a subspace of P^{cfg.r}")
    return k


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
    k = _kernel_rows(cfg)
    f = cfg.field
    for i, row in enumerate(k.entries):
        if row_is_zero(f, row):
            raise GaleDegenerate(i)
    pair = first_proportional_pair(f, k.entries)
    if pair is not None:
        raise GaleNonReduced(*pair)
    transform = PointConfiguration(k)
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

    The kernel matrix is used directly, without the reduced-configuration
    checks of :func:`gale_transform`, so the identity can be probed on
    configurations whose transform has coincident or vanishing rows.
    """
    s = validate_subset(subset, cfg.gamma)
    k = _kernel_rows(cfg)
    span_failure = (cfg.r + 1) - cfg.span_rank(s)
    complement = tuple(sorted(set(range(cfg.gamma)) - set(s)))
    if complement:
        cond_rank = k.submatrix(complement).rank()
    else:
        cond_rank = 0
    condition_failure = len(complement) - cond_rank
    return span_failure, condition_failure
