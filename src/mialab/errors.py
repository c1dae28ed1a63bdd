"""Exception types shared across the package, the argument checks that raise them
(:func:`integer` for counts and seeds, :func:`real` for real-valued parameters), and
the text-file reader that maps undecodable input onto them."""

import contextlib
import math

import numpy as np


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


def integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``minimum`` raises
    ``ValidationError``."""
    # bool is an int to Python, so it is ruled out by name
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def real(name: str, value, holds, need: str) -> float:
    """``value`` as a float; a bool, a non-real or a value failing ``holds`` raises
    ``ValidationError`` saying that ``name`` must ``need``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range is no finite real
        number = math.nan
    if not holds(number):
        raise ValidationError(f"{name} must {need}, got {value!r}")
    return number


@contextlib.contextmanager
def open_text(path: str):
    """Open ``path`` for reading; bytes the text codec rejects raise ``ValidationError``."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path!r} is not a text file: {exc.reason} at byte {exc.start}") from None
