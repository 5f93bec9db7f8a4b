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
from dataclasses import dataclass, field

import numpy as np

from .clustering import Clustering
from .errors import PipelineConfig
from .graph import Network
from .parsing import ValidityReport

log = logging.getLogger(__name__)


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
    # imported here, not at the top, so that each call reads the stages
    # from their modules: a wrapper put in a stage's place after this
    # module loaded is what runs
    from .augment import augment
    from .kcore import ikc
    from .parsing import kmp_parse, validate

    timings: dict[str, float] = {}
    dropped: list[np.ndarray] = []

    def stage(n: int, run, *args) -> Clustering:
        """Stage n as `run(net, *args)`, timed and logged; the nodes a
        stage returning (clustering, dropped) drops go to `dropped`."""
        t0 = time.perf_counter()
        out = run(net, *args)
        took = timings[f"stage{n}"] = time.perf_counter() - t0
        out, disc = out if isinstance(out, tuple) else (out, ())
        if len(disc):
            dropped.append(disc)
        msg = "stage %d: %d clusters, %d nodes dropped, %.2fs"
        log.info(msg, n, len(out), len(disc), took)
        return out

    stage1 = current = stage(1, ikc, cfg.k)
    if cfg.stage2 != "none":
        from .bisection import iterative_split, recursive_split

        split = recursive_split if cfg.stage2 == "recursive" else iterative_split
        current = stage(2, split, current, cfg)
    if cfg.stage3:
        current = stage(3, augment, current, cfg.p)
    final = stage(4, kmp_parse, current, cfg.k, cfg.p)

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
