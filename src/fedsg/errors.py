"""Exception types shared across the package, and the number check
that the config dataclasses share."""

import numbers


def check_numbers(obj, integers, reals):
    """Raise ValueError unless every field of obj named in integers is an
    integer and every one named in reals is a real number. A bool is
    refused, and so is a float for an integer even when integral (20.0)."""
    for names, kind, what in ((integers, numbers.Integral, "an integer"),
                              (reals, numbers.Real, "a number")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")


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
    labels, values); the CLI exits 2 for them, not 1."""


class AllOneClass(InputError):
    """Rate metrics are undefined when the labels hold only one class, a
    property of the test set."""


class ParseError(InputError):
    """Malformed input file; message carries row/column location."""


class UnknownLabel(InputError):
    """A record label is outside the configured label map."""


class EmptyShard(InputError):
    """A stack of client shards is empty or not (n_clients, d, B), or
    the records are too few to give every client a shard."""


class NonFiniteShard(InputError):
    """A training shard holds a NaN or infinite value."""


class InputOverflow(InputError):
    """Training shards too large for the arithmetic: their energy
    sum_i ||X_i||_F^2 overflows, or a gradient step of size eta could."""


class DimensionMismatch(InputError):
    """Checkpoint and data dimensions disagree, or a training config asks
    for more than the training shards hold (a rank above min(d, B), or a
    sample fraction of the clients below one client)."""
