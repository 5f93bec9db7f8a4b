"""Exception types, the pipeline's settings and their checks.

The settings are `BisectConfig` (stage 2's), `PipelineConfig` (all of
the pipeline's) and `STAGE2_CHOICES`; with the checks on the thresholds
k and p and the message for unknown ids, they need no numpy, so the
CLI's parser is built without it.
"""

from dataclasses import KW_ONLY, asdict, dataclass


class KmpError(Exception):
    """Base class for errors raised by this package."""


class EdgeListError(KmpError):
    """An edge list file is empty or malformed."""


class ClusteringFileError(KmpError):
    """A clustering file is malformed or inconsistent with the network."""


class MarkerFileError(KmpError):
    """A marker panel file references unknown nodes or is unreadable."""


class ConfigError(KmpError, ValueError):
    """A parameter combination the algorithms cannot honor."""


def check_thresholds(k=None, p=None, p_below_k: bool = False) -> None:
    """Raise ConfigError unless k >= 1 and p >= 1, each checked when
    given, and, with `p_below_k`, p < k."""
    if k is not None and k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if p is not None and p < 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    if p_below_k and p >= k:
        raise ConfigError(f"p must be smaller than k, got p={p} with k={k}")


STAGE2_CHOICES = ("none", "recursive", "iterative")


@dataclass
class BisectConfig:
    k: int
    _: KW_ONLY
    local_search_iters: int = 0
    max_rounds: int = 32

    def __post_init__(self):
        check_thresholds(self.k)
        if self.local_search_iters < 0:
            raise ConfigError("local_search_iters must be nonnegative")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be at least 1")


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
        check_thresholds(self.k, self.p, p_below_k=True)
        if self.stage2 not in STAGE2_CHOICES:
            raise ConfigError(
                f"stage2 must be one of {', '.join(STAGE2_CHOICES)}, got {self.stage2!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


_LISTED = 10  # the unknown ids an error names


def unknown_ids(path, kind: str, ids: list[str]) -> str:
    """The message for the `ids` of a `kind` the file `path` names but
    the network lacks; it lists the first few."""
    shown = ", ".join(ids[:_LISTED])
    more = "" if len(ids) <= _LISTED else f" (+{len(ids) - _LISTED} more)"
    return f"{path}: {len(ids)} {kind} ids not in the network: {shown}{more}"
