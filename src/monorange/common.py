"""Shared exceptions, the flagged distance-estimate type, input readers that report
every fault in one form, and small numeric helpers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class MonorangeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MonorangeError):
    """Input violates an operation's domain (out-of-frame box, bad height, ...)."""


class EmptyInputError(MonorangeError):
    """An operation that needs at least one element received none."""


class SingularFitError(MonorangeError):
    """Least-squares design is rank deficient; the message names the collinear features."""


class DegenerateGeometryError(MonorangeError):
    """A sampling pattern (disc/ring) has no pixels inside its box."""


class NotReadyError(MonorangeError):
    """Recalibration was requested before enough recent samples accumulated."""


class MissingDataError(MonorangeError):
    """A required input file or record is absent."""


class FormatError(MonorangeError):
    """A file does not conform to its declared format."""


class NonFiniteError(DomainError):
    """A number to be written is NaN or infinite."""


# What turning a parsed JSON field into a number or a record can raise: a
# missing key, a wrong type, an invalid value, or an integer too large for a
# float.
PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


class NeodMagicError(FormatError):
    """Depth-map file does not start with the NEOD magic bytes."""


class NeodTruncatedError(FormatError):
    """Depth-map file payload does not match the size its header promises."""


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance in meters plus an out-of-domain warning flag.

    Linear estimators can extrapolate to non-physical distances; such values
    are returned as-is with the flag set rather than clamped or dropped.
    """

    value_m: float
    out_of_domain: bool = False


def unreadable(what: str, exc: OSError) -> MissingDataError:
    """The missing-data error for an input file ``what`` that could not be opened or read."""
    if isinstance(exc, FileNotFoundError):
        return MissingDataError(f"{what} not found")
    return MissingDataError(f"{what} unreadable ({exc.strerror})")


def unwritable(what: str, exc: OSError) -> MissingDataError:
    """The missing-data error for an output ``what`` that could not be created or written."""
    return MissingDataError(f"{what} cannot be written ({exc.strerror})")


def _not_utf8(where: str, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{where}: not UTF-8 text ({exc.reason})")


def read_text(path: str | Path, what: str) -> str:
    """Whole text of a UTF-8 input file.

    An OSError becomes :class:`MissingDataError`; bytes that are not UTF-8
    become :class:`FormatError` naming the file and line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise unreadable(f"{what} {path}", exc) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise _not_utf8(f"{path}:{line}", exc) from exc


def read_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a UTF-8 input file.

    An OSError from opening or reading becomes :class:`MissingDataError`; a
    line that is not UTF-8 becomes :class:`FormatError` naming the file and line.
    """
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise _not_utf8(f"{path}:{lineno}", exc) from exc
                if line:
                    yield lineno, line
    except OSError as exc:
        raise unreadable(f"{what} {path}", exc) from exc


def _finite_float(text: str) -> float:
    value = float(text)  # "NaN", "Infinity" and overflowing literals land here
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json(path: str | Path, what: str, kind: str, build: Callable[[dict], T]) -> T:
    """``build(object)`` for the JSON object in an input file, read as :func:`read_text` does.

    ``NaN``, ``Infinity`` and float literals that overflow, like ``1e999``,
    are rejected: each of these, invalid JSON, a top level that is not an
    object, and a parse or domain error from ``build`` become
    :class:`FormatError` naming the file; the last reads
    ``<file>: malformed <kind> (...)``.
    """
    text = read_text(path, what)
    try:
        payload = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except ValueError as exc:  # JSONDecodeError included
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    try:
        return build(payload)
    except (DomainError, *PARSE_ERRORS) as exc:
        raise FormatError(f"{path}: malformed {kind} ({exc})") from exc


def read_jsonl(
    path: str | Path, what: str, build: Callable[[dict], T], file_kind: str = "input file"
) -> Iterator[T]:
    """``build(object)`` for the object on each non-blank line of a JSONL input file.

    A line that is not a JSON object, or whose object ``build`` rejects with a
    parse or domain error, is a :class:`FormatError` naming the file and line;
    so is a :class:`FormatError` that ``build`` raises for a rule of its own
    format, with its message kept. ``file_kind`` names the file when it
    cannot be read.
    """
    for lineno, line in read_lines(path, file_kind):
        try:
            payload = json.loads(line)
        except ValueError as exc:  # JSONDecodeError included
            raise FormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if type(payload) is not dict:
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        try:
            item = build(payload)
        except FormatError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        except (DomainError, *PARSE_ERRORS) as exc:
            raise FormatError(f"{path}:{lineno}: malformed {what} ({exc})") from exc
        yield item


def whole(value, name: str) -> int:
    """A count or a size given as a number with no fractional part."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} {value} is not a whole number")
    return int(number)


def mean_exact(values: Iterable[float]) -> float:
    """Arithmetic mean via exactly rounded summation (order independent)."""
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyInputError("mean of an empty sequence")
    return math.fsum(vals) / len(vals)


def linear_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Quantile by linear interpolation between order statistics.

    `sorted_values` must already be in ascending order; q is in [0, 1].
    """
    n = len(sorted_values)
    if n == 0:
        raise EmptyInputError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile fraction {q} outside [0, 1]")
    if n == 1:
        return float(sorted_values[0])
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    a = float(sorted_values[lo])
    b = float(sorted_values[hi])
    return a + frac * (b - a)


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(Q1, Q2, Q3) of `values` using linear interpolation between order statistics."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise EmptyInputError("quartiles of an empty sequence")
    return (
        linear_quantile(ordered, 0.25),
        linear_quantile(ordered, 0.50),
        linear_quantile(ordered, 0.75),
    )


# The canonical encoders, built once: ``json.dumps`` with options builds a new
# encoder on every call. Without ``indent`` the separators are ", " and ": ".
# ``allow_nan=False`` makes a NaN or an infinity a ValueError instead of a
# token no strict JSON reader accepts.
_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def canonical_json(payload) -> str:
    """Stable JSON text (sorted keys, two-space indent, trailing newline).

    Used for every profile and stream record this package writes so that
    write -> read -> write round trips are byte-identical. A non-finite
    number raises ValueError.
    """
    return _JSON_ENCODER.encode(payload) + "\n"


def canonical_jsonl_line(payload) -> str:
    """One-line stable JSON for stream records; a non-finite number raises ValueError."""
    return _JSONL_ENCODER.encode(payload) + "\n"
