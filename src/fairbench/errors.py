"""Exception and warning types shared across the package."""


class FairbenchError(Exception):
    """Base class for all package errors."""


class DataFormatError(FairbenchError):
    """Malformed input data (ragged rows, bad cells); message carries row/column position."""


class SchemaError(FairbenchError):
    """Invalid dataset schema or batch configuration; message carries the YAML path."""


class UndefinedMetricError(FairbenchError):
    """A metric's denominator is empty; message names the group and rate."""


class FitError(FairbenchError):
    """A fitting procedure failed (degenerate input, non-finite objective)."""


class FairbenchWarning(UserWarning):
    """Non-fatal data conditions: dropped rows, unseen categories, degenerate cells."""


def error_text(exc: BaseException) -> str:
    """`<Type>: <message>`, or `<Type>` when the message is empty: the one form
    in which a failed preparation, arm or job is reported."""
    message = str(exc)
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__
