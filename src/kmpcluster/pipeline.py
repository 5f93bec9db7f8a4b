"""The four-stage clustering pipeline.

Stage 1 seeds clusters by iterated top-core extraction. Stage 2
optionally breaks large seeds up along small normalized cuts. Stage 3
optionally attaches periphery nodes. Stage 4 reconciles whatever came
out of the earlier stages into kmp-valid clusters; it runs always, and
it is what makes the output contract unconditional.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .augment import augment
from .bisection import BisectConfig, iterative_split, recursive_split
from .clustering import Clustering
from .errors import ConfigError
from .graph import Network
from .kcore import ikc
from .parsing import ValidityReport, kmp_parse, validate

log = logging.getLogger(__name__)

STAGE2_CHOICES = ("none", "recursive", "iterative")


@dataclass(kw_only=True)
class PipelineConfig(BisectConfig):
    """Stage 2's settings plus the ones only the pipeline reads.

    Every field after `k` is keyword-only, so the order in which the
    fields are declared cannot change what a call means.
    """

    p: int = 2
    stage2: str = "none"
    stage3: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.p < 1:
            raise ConfigError(f"p must be at least 1, got {self.p}")
        if self.p >= self.k:
            raise ConfigError(
                f"p must be smaller than k, got p={self.p} with k={self.k}"
            )
        if self.stage2 not in STAGE2_CHOICES:
            raise ConfigError(
                f"stage2 must be one of {', '.join(STAGE2_CHOICES)}, got {self.stage2!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineResult:
    final: Clustering
    validity: ValidityReport
    stage1: Clustering
    discarded: np.ndarray
    singletons: np.ndarray
    timings: dict[str, float] = field(default_factory=dict)


def run_pipeline(net: Network, cfg: PipelineConfig) -> PipelineResult:
    """Run the stages selected by cfg and account for every node.

    The final clustering is always kmp-valid (checked before returning;
    a failure would be a bug, not an input problem). Nodes outside the
    final clusters are split into `discarded` (explicitly dropped along
    the way and never re-attached) and `singletons` (everything else).
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    current = ikc(net, cfg.k)
    stage1 = current
    timings["stage1"] = time.perf_counter() - t0
    log.info(
        "stage 1: %d clusters in %.2fs", len(current), timings["stage1"]
    )

    dropped: list[np.ndarray] = []
    if cfg.stage2 != "none":
        t0 = time.perf_counter()
        split = recursive_split if cfg.stage2 == "recursive" else iterative_split
        current, disc = split(net, current, cfg)
        dropped.append(disc)
        timings["stage2"] = time.perf_counter() - t0
        log.info(
            "stage 2 (%s): %d clusters, %d nodes dropped, %.2fs",
            cfg.stage2,
            len(current),
            len(disc),
            timings["stage2"],
        )

    if cfg.stage3:
        t0 = time.perf_counter()
        current = augment(net, current, cfg.p)
        timings["stage3"] = time.perf_counter() - t0
        log.info("stage 3: %.2fs", timings["stage3"])

    t0 = time.perf_counter()
    final, disc = kmp_parse(net, current, cfg.k, cfg.p)
    dropped.append(disc)
    timings["stage4"] = time.perf_counter() - t0
    log.info(
        "stage 4: %d clusters, %d nodes dropped, %.2fs",
        len(final),
        len(disc),
        timings["stage4"],
    )

    validity = validate(net, final, cfg.k, cfg.p)
    if not validity.all_kmp_valid():
        raise RuntimeError("pipeline produced an invalid cluster; this is a bug")

    discarded, singletons = final.unplaced(dropped)
    return PipelineResult(
        final=final,
        validity=validity,
        stage1=stage1,
        discarded=discarded,
        singletons=singletons,
        timings=timings,
    )
