"""Exception types shared across the package."""


class FedsgError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(FedsgError):
    """Operands have incompatible dimensions."""


class RankDeficient(FedsgError):
    """A factorization input lost full column rank; the update is invalid."""


class ConvergenceFailure(FedsgError):
    """Iterative scheme did not reach tolerance within its iteration cap."""


class EmptyInput(FedsgError):
    """An operation received an empty collection."""


class LengthMismatch(FedsgError):
    """Paired sequences have different lengths."""


class InputError(FedsgError):
    """Base class for faults in input from outside the program (files,
    labels, feature names); the CLI exits 2 for them, not 1."""


class AllOneClass(InputError):
    """Rate metrics are undefined when the labels hold only one class, a
    property of the test set."""


class ParseError(InputError):
    """Malformed input file; message carries row/column location."""


class UnknownLabel(InputError):
    """A record label is outside the configured label map."""


class MissingFeature(InputError):
    """A named feature is absent from the loaded records."""


class EmptyShard(InputError):
    """A stack of client shards is empty or not (n_clients, d, B)."""


class NonFiniteShard(InputError):
    """A training shard holds a NaN or infinite value."""


class DimensionMismatch(InputError):
    """Checkpoint and data dimensions disagree."""
