"""Exception hierarchy shared across the package, and the input boundary.

The CLI maps these onto stable exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, OSError -> 4. Every file the package
reads is decoded and parsed here, so invalid UTF-8, malformed JSON and
JSON nested past the recursion limit all end in the caller's error class.
The artifact loaders read their numeric fields through json_int,
json_float and json_array, which take a JSON number as it is and refuse
anything else (a numeric string or a boolean included), and hold their
objects to the keys they write through json_keys.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np


class MgtError(Exception):
    """Base class for all package errors."""


class ConfigError(MgtError):
    """Invalid or inconsistent run configuration."""


class DataError(MgtError):
    """Malformed, degenerate, or missing data / model state."""


class EmptyDocument(DataError):
    """Document body is empty after normalization."""


class DegenerateSplit(DataError):
    """A train/val/test split received zero documents of some class."""


class EmptyEmbedding(DataError):
    """Embedding file declares zero vectors."""


class AurocUndefined(DataError):
    """AUROC requested but labels contain a single class."""


class ModelFormatError(DataError):
    """Persisted model file is corrupted or has an unsupported schema."""


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Stream (line number, line) pairs of a UTF-8 text file, numbered as
    ``enumerate(open(path), start=1)`` numbers them; DataError naming the
    file on invalid UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def parse_json(text: str, where: str, error: type[MgtError] = DataError):
    """The JSON value of *text*; *error* naming *where* when it is malformed
    or nested past the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError
        raise error(f"{where}: malformed JSON: {exc}") from exc


def read_text(path: str | Path, error: type[MgtError] = DataError) -> str:
    """A whole UTF-8 file; *error* naming the file when it is not valid UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def load_json(path: str | Path, error: type[MgtError] = DataError):
    """The JSON value of a whole UTF-8 file; *error* naming the file when
    it is not valid UTF-8 or not valid JSON."""
    return parse_json(read_text(path, error), str(path), error)


def json_int(value) -> int:
    """*value* when it is a JSON integer; ValueError otherwise (a float, a
    string or a boolean included), so that no field is silently truncated."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_keys(value: dict, keys, where: str = "") -> dict:
    """*value* when it is an object holding only *keys*; ValueError naming
    the first other key (under *where*) otherwise."""
    if type(value) is not dict:
        raise ValueError(f"{where or 'file'} must be a JSON object")
    unknown = sorted(value.keys() - set(keys))
    if unknown:
        key = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ValueError(f"unknown key {key!r}")
    return value


def json_float(value) -> float:
    """*value* as a float when it is a finite JSON number; ValueError
    otherwise (a string or a boolean included)."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("non-finite numeric field")
    return x


def json_array(values, ndim: int) -> np.ndarray:
    """*values* as a float array when it nests *ndim* levels of lists
    around finite JSON numbers; ValueError otherwise (a string or a boolean
    element included)."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D numeric array, got {arr.ndim}-D")
    for _ in range(ndim - 1):
        values = [x for row in values for x in row]
    for x in values:
        json_float(x)
    return arr
