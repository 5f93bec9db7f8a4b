"""Exception types shared across the package, and a message they share."""


class KmpError(Exception):
    """Base class for errors raised by this package."""


class EdgeListError(KmpError):
    """An edge list file is empty or malformed."""


class ClusteringFileError(KmpError):
    """A clustering file is malformed or inconsistent with the network."""


class MarkerFileError(KmpError):
    """A marker panel file references unknown nodes or is unreadable."""


class ConfigError(KmpError):
    """A parameter combination the algorithms cannot honor."""


_LISTED = 10  # the unknown ids an error names


def unknown_ids(path, kind: str, ids: list[str]) -> str:
    """The message for the `ids` of a `kind` the file `path` names but
    the network lacks; it lists the first few."""
    shown = ", ".join(ids[:_LISTED])
    more = "" if len(ids) <= _LISTED else f" (+{len(ids) - _LISTED} more)"
    return f"{path}: {len(ids)} {kind} ids not in the network: {shown}{more}"
