"""Exception types, the checks on the thresholds k and p, and a message."""


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


_LISTED = 10  # the unknown ids an error names


def unknown_ids(path, kind: str, ids: list[str]) -> str:
    """The message for the `ids` of a `kind` the file `path` names but
    the network lacks; it lists the first few."""
    shown = ", ".join(ids[:_LISTED])
    more = "" if len(ids) <= _LISTED else f" (+{len(ids) - _LISTED} more)"
    return f"{path}: {len(ids)} {kind} ids not in the network: {shown}{more}"
