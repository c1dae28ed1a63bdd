"""Exception types shared across the package, and the text-file reader that maps
undecodable input onto them."""

import contextlib


class MialabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MialabError):
    """Invalid parameters, shapes, normalization, or file schemas."""


class DataError(MialabError):
    """Input data that cannot be processed (non-finite values, wrong domain)."""


class DegenerateDataError(DataError):
    """Training data lacking the structure a fit requires (e.g. one class)."""


class InsufficientDataError(DataError):
    """Too few samples for the requested computation."""


class UnboundedRatioError(MialabError):
    """No finite likelihood-ratio bounds exist for the given pair."""


@contextlib.contextmanager
def open_text(path: str):
    """Open ``path`` for reading; bytes the text codec rejects raise ``ValidationError``."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path!r} is not a text file: {exc.reason} at byte {exc.start}") from None
