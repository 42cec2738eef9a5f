"""Input rules, numeric CSV tables, JSON config objects, atomic writes.

Each argument rule is written here once, with one message: a count
(:func:`check_count`), a level (:func:`check_level`), two operands of one
dimension (:func:`check_dims`) and an outside array of finite numbers
(:func:`check_finite`).  A config class checks its fields by a ``_checks``
table (:func:`field_problems`), and a function taking one of those values
checks it by the same table, raising a DomainError.  Every table the
package writes goes through :func:`csv_text` (shortest round-trip
decimals, one LF per line) and :func:`atomic_write_text`; every JSON
config is read by :func:`load_json_object` and converted field by field
through :func:`json_fields`, so a bad file is reported in one message.
"""

from __future__ import annotations

import json
import numbers
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DepthRiskError, DimensionMismatch, DomainError, IoError


def fmt(value) -> str:
    """Shortest decimal string that round-trips the value; strings pass as is."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_text(header: str, rows) -> str:
    """The header line, then one line of :func:`fmt` cells per row, each line
    ending with a single LF."""
    lines = [header] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write the whole file or nothing.

    The text goes to a new temporary file of its own in the same directory,
    is flushed to disk, and is renamed over ``path``; writers running at
    once each use their own temporary file, so a reader sees one complete
    text.  On failure the temporary file is removed.
    """
    path = Path(path)
    # a random name opened exclusively, created with the usual permissions
    # (mkstemp would make the output readable by its owner only)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise IoError(f"cannot write {path}: {exc}") from exc


def make_out_dir(path) -> Path:
    """Create the output directory (and its parents) if needed."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    return out


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice (``json`` keeps the last)."""
    keys = [key for key, _ in pairs]
    twice = sorted({key for key in keys if keys.count(key) > 1})
    if twice:
        raise ValueError(f"keys given twice: {', '.join(twice)}")
    return dict(pairs)


def load_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold one object; ``what`` names it in errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, a repeated key, a too-long integer
        raise ConfigError(f"{what}: {path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}: {path}: expected a JSON object")
    return obj


def read_matrix_csv(path, expect_cols: int | None = None) -> np.ndarray:
    """Parse a numeric CSV, skipping one optional header line.

    Errors name the offending line so the file can be fixed directly.
    """
    rows: list[list[float]] = []
    ncols = expect_cols
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                parts = [p.strip() for p in stripped.split(",")]
                try:
                    vals = [float(p) for p in parts]
                except ValueError:
                    if lineno == 1:
                        continue
                    raise IoError(
                        f"{path}: line {lineno}: cannot parse '{stripped}'"
                    ) from None
                if ncols is None:
                    ncols = len(vals)
                if len(vals) != ncols:
                    raise IoError(
                        f"{path}: line {lineno}: expected {ncols} columns, got {len(vals)}"
                    )
                rows.append(vals)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IoError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def json_int(value) -> int:
    """A JSON integer field: an int, or a float with an exact integer value.

    Booleans, strings and fractional or non-finite floats are the wrong
    type: they raise rather than being truncated.
    """
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def json_ints(value) -> tuple[int, ...]:
    """A JSON array of integers, each read by :func:`json_int`."""
    return tuple(json_int(x) for x in value)


def json_float(value) -> float:
    """A JSON number field: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def json_floats(value) -> tuple[float, ...]:
    """A JSON array of numbers, each read by :func:`json_float`."""
    return tuple(json_float(x) for x in value)


def json_fields(obj: dict, table: dict, required, problems: list[str], prefix: str = "",
                hints: dict | None = None) -> dict:
    """Convert the fields of a parsed JSON object by a table of converters.

    ``table`` maps each key to its converter.  A key absent from ``obj`` is
    a problem when it is in ``required`` and is left out otherwise; a key of
    ``obj`` that is not in ``table`` is an unknown key, followed by its text
    in ``hints`` (why this reader refuses it), if any.  A converter raising
    TypeError, ValueError or OverflowError makes the field the wrong type; a
    ConfigError's problems are each reported under the field as
    ``key.problem`` (``key[i].problem`` for a problem ``[i].problem`` of list
    item i), and any other DepthRiskError by its message.
    Problem texts, each naming ``prefix + key``, are appended to
    ``problems``; the converted fields are returned by key.
    """
    problems.extend(
        f"{prefix}{key}: unknown key{(hints or {}).get(key, '')}"
        for key in obj if key not in table
    )
    fields = {}
    for key, convert in table.items():
        name = prefix + key
        if key not in obj:
            if key in required:
                problems.append(f"{name}: missing")
            continue
        try:
            fields[key] = convert(obj[key])
        except ConfigError as exc:
            parts = str(exc).split("; ")
            problems.extend(name + ("" if p.startswith("[") else ".") + p for p in parts)
        except DepthRiskError as exc:
            problems.append(f"{name}: {exc}")
        except (TypeError, ValueError, OverflowError):
            problems.append(f"{name}: wrong type")
    return fields


def is_integer(value) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_count(value, least: int) -> bool:
    """An integer (:func:`is_integer`) of at least ``least``."""
    return is_integer(value) and value >= least


def is_real(value) -> bool:
    """A real number, numpy's included: not a bool, a string or an array."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(value, least: int, name: str) -> int:
    """``value`` as an int, if it is a count (:func:`is_count`) of at least
    ``least``; a DomainError naming the argument ``name`` otherwise."""
    if not is_count(value, least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_level(alpha) -> float:
    """``alpha`` as a float, if it is a level: a real number (not a string
    or a bool) strictly inside (0, 1).  Raises DomainError otherwise."""
    real = is_real(alpha)
    if not (real and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {float(alpha) if real else alpha!r}")
    return float(alpha)


def check_dims(a, b, what: str) -> None:
    """Raise DimensionMismatch, naming ``what``, unless ``a.dim == b.dim``."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"{what} dimensions differ: {a.dim} vs {b.dim}")


def check_finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, if it holds only finite real numbers (no
    string, bool or other object, no ragged nesting, NaN or infinity); a
    DomainError "<name> must be finite numbers" otherwise."""
    try:
        arr = np.asarray(value)
        # a bool among numbers converts silently: nested entries are told apart by type
        entries = [] if isinstance(value, np.ndarray) else [value]
        for _ in range(arr.ndim):
            entries = list(chain.from_iterable(entries))
        ok = arr.dtype.kind in "iuf" and not any(
            issubclass(kind, (bool, np.bool_)) for kind in set(map(type, entries)))
    except (TypeError, ValueError, OverflowError):  # ragged nesting
        ok = False
    if not (ok and np.isfinite(arr).all()):
        raise DomainError(f"{name} must be finite numbers")
    return arr.astype(float, copy=False)


def field_problems(checks, values: dict, prefix: str = "") -> list[str]:
    """Problems of the fields present in ``values`` under a table of
    (field, check, reason), each naming ``prefix + field``: the reason where
    the check is false or raises a DepthRiskError, "wrong type" (as in
    :func:`json_fields`) where it raises TypeError or ValueError.  The
    checks of a field run in table order up to its first problem."""
    problems: dict[str, str] = {}
    for key, check, why in checks:
        if key not in values or key in problems:
            continue
        try:
            ok = check(values[key])
        except DepthRiskError:
            ok = False
        except (TypeError, ValueError):
            ok, why = False, "wrong type"
        if not ok:
            problems[key] = f"{prefix}{key}: {why}"
    return list(problems.values())


def raise_problems(problems: list[str], error=ConfigError) -> None:
    """Raise one ``error`` naming every problem, if there is any."""
    if problems:
        raise error("; ".join(problems))


def fields_from_json(cls, obj: dict, table: dict, required, hints: dict | None = None) -> dict:
    """The fields of a config class ``cls`` converted from parsed JSON by a
    table of converters, naming in one ConfigError every missing required,
    unconvertible or (by the class's ``_checks``) invalid field, and every
    unknown key with its text in ``hints``.  Absent optional fields are left
    out, so they take the class defaults."""
    problems: list[str] = []
    fields = json_fields(obj, table, required, problems, hints=hints)
    raise_problems(problems + field_problems(cls._checks, fields))
    return fields
