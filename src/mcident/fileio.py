"""JSON file formats and report emission.

Formats (all JSON):
  matrix      {"d": n, "rows": [[...], ...]}         row-stochastic, 1e-8
  probvector  {"d": n, "p": [...]}
  trajectory  {"d": n, "states": [...]}              states are 1-based
  samples     {"d": K, "samples": [...]}             codes are 1-based

d is a JSON integer, and states and samples are lists of JSON integers;
anything else is a ChainTestError, and so is a file that is not UTF-8 text
or not JSON, with the file's name in front of the message. Rows are
validated at 1e-8 and then renormalized exactly, so files produced by other
tools with print-rounded floats still load. A loaded trajectory holds its
states in sampling.state_dtype(d), one byte per state up to d = 256;
loaded samples are int64 codes.

The writers save_matrix, save_probvector and save_trajectory write one line
of JSON with sorted keys and no spaces, the bytes of json.dumps(doc,
sort_keys=True, separators=(",", ":")) + "\n". Trajectory arrays are turned
into digits with numpy, a chunk of values at a time, never into a Python
list. Samples files are read, not written: no subcommand produces one, and
json.dumps gives the same layout. A trajectory or samples file
whose only array is its states or samples, written as non-negative integers
of at most 18 digits with no whitespace, is parsed the same way (the rest of
the file, the array emptied, goes through json.loads), and a trajectory's
states are range-checked and cast to their narrow dtype a chunk at a time;
any other file, such as the indented files of earlier versions, floats,
negatives, states outside [1, d] or a truncated file, is parsed with
json.load, which accepts any JSON layout and words every error. Reports
stay indented. All numbers in emitted reports are rounded to 12 significant
digits, which keeps reports byte-identical across runs with the same
manifest, and a non-finite float is written as null, so a report is strict
JSON (RFC 8259)."""

from __future__ import annotations

import hashlib
import json
import sys
from math import isfinite
from pathlib import Path

import numpy as np

from .chain_core import ProbVector, TransitionMatrix
from .errors import ChainTestError
from .sampling import Trajectory, state_dtype

_FILE_TOL = 1e-8

# Values per chunk of the integer writer, and bytes per chunk of the integer
# reader: their temporaries stay this size however long the array is.
_CHUNK_VALUES, _CHUNK_BYTES = 1 << 16, 1 << 17
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_ZERO, _COMMA = ord("0"), ord(",")


def load_matrix(path) -> TransitionMatrix:
    doc = _read(path)
    d = _dimension(doc, path)
    try:
        rows = np.asarray(doc.get("rows"), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ChainTestError(f"{path}: rows are not numeric: {exc}") from None
    if rows.ndim != 2 or rows.shape != (d, d):
        raise ChainTestError(f"{path}: rows shape {rows.shape} does not match d={d}")
    sums = rows.sum(axis=1)
    if not (np.abs(sums - 1.0).max() <= _FILE_TOL and rows.min() >= -_FILE_TOL):  # NaN fails
        raise ChainTestError(f"{path}: rows must sum to 1 within {_FILE_TOL}")
    rows = np.clip(rows, 0.0, None)
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


def save_matrix(P: TransitionMatrix, path) -> None:
    rows = [[float(x) for x in row] for row in P.entries]
    _write(path, round12({"d": P.d, "rows": rows}))


def load_probvector(path) -> ProbVector:
    doc = _read(path)
    d = _dimension(doc, path)
    try:
        p = np.asarray(doc.get("p"), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ChainTestError(f"{path}: p is not numeric: {exc}") from None
    if p.ndim != 1 or p.shape[0] != d:
        raise ChainTestError(f"{path}: p shape {p.shape} does not match d={d}")
    if not (abs(p.sum() - 1.0) <= _FILE_TOL and p.min() >= -_FILE_TOL):  # NaN fails
        raise ChainTestError(f"{path}: p must sum to 1 within {_FILE_TOL}")
    p = np.clip(p, 0.0, None)
    return ProbVector(p / p.sum())


def save_probvector(p: ProbVector, path) -> None:
    _write(path, round12({"d": p.d, "p": [float(x) for x in p.entries]}))


def load_trajectory(path) -> Trajectory:
    d, states = _load_integers(path, "states")
    if d >= 1 and states.size and (int(states.min()) < 0 or int(states.max()) >= d):
        raise ChainTestError(f"{path}: states outside [1, {d}]")
    try:
        return Trajectory(d=d, states=states)
    except ChainTestError as exc:
        raise ChainTestError(f"{path}: {exc}") from None


def save_trajectory(traj: Trajectory, path) -> None:
    """Write {"d": d, "states": states + 1} in the bytes json.dumps(doc,
    sort_keys=True, separators=(",", ":")) + "\n" gives, turning the 0-based
    states into 1-based digits with numpy, _CHUNK_VALUES at a time. Each
    chunk is widened to uint64 before the + 1, so a narrow 255 is written
    256, not 0."""
    states = traj.states
    text = json.dumps({"d": int(traj.d), "states": []}, sort_keys=True, separators=(",", ":"))
    cut = text.index("[]") + 1
    with open(path, "wb") as fh:
        fh.write(text[:cut].encode())
        for start in range(0, states.size, _CHUNK_VALUES):
            ascii = _ascii(states[start : start + _CHUNK_VALUES].astype(np.uint64) + np.uint64(1))
            fh.write(ascii if start + _CHUNK_VALUES < states.size else ascii[:-1])
        fh.write(text[cut:].encode() + b"\n")


def load_samples(path) -> tuple[int, np.ndarray]:
    """Integer-alphabet samples; returns (alphabet size, 0-based int64 codes)."""
    return _load_integers(path, "samples")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def round12(obj):
    """Recursively round floats to 12 significant digits for stable output;
    a non-finite float becomes None, JSON's null."""
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.12g}") if isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_report(doc: dict, path=None) -> str:
    """Serialize a report deterministically; write to path or stdout."""
    text = json.dumps(round12(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
    return text


def _read(path) -> dict:
    """Parse a JSON input file; raise ChainTestError unless it is UTF-8 text
    holding an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ChainTestError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ChainTestError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ChainTestError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _dimension(doc: dict, path) -> int:
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool):
        raise ChainTestError(f"{path}: d must be an integer, got {d!r}")
    return d


def _integers(doc: dict, key: str, path) -> np.ndarray:
    """The list doc[key] as an int64 array, read exactly; positive "states"
    past the int64 range, up to 2**64 - 1, as a uint64 one. Anything but a
    flat list of integers is an error (floats would otherwise be truncated
    silently)."""
    items = doc.get(key, [])
    # type() is not isinstance(): true and false are not integers here
    if not isinstance(items, list) or any(type(x) is not int for x in items):
        raise ChainTestError(f"{path}: {key} must be a list of integers")
    wide = key == "states" and items and min(items) >= 1 and max(items) >= 2**63
    try:
        return np.array(items, dtype=np.uint64 if wide else np.int64)
    except OverflowError:
        raise ChainTestError(f"{path}: {key} holds an integer out of range") from None


def _load_integers(path, key: str) -> tuple[int, np.ndarray]:
    """d and the 0-based array doc[key] of a trajectory or samples file,
    read-only and owning its data: int64, or for a trajectory's "states"
    state_dtype(d) when the numpy reader reads them and uint64 when they
    pass the int64 range."""
    raw = Path(path).read_bytes()
    compact = _read_compact(raw, key)
    if compact is None:
        doc = _read(path)
        d = _dimension(doc, path)
        values = _integers(doc, key, path)
        values -= 1
    else:
        d, values = compact
    values.setflags(write=False)
    return d, values


def _read_compact(raw: bytes, key: str):
    """(d, doc[key] - 1) without building a Python list, when the span from
    the first '[' to the last ']' of raw is a list of non-negative JSON
    integers of at most 18 digits with no whitespace, that list is doc[key]
    and d is an integer; for "states", only when every value is also in
    [1, d], and the result is then of state_dtype(d). None for any other
    input, which json.load reads instead."""
    lo, hi = raw.find(b"["), raw.rfind(b"]")
    if lo < 0 or hi < lo:
        return None
    try:
        doc = json.loads((raw[: lo + 1] + raw[hi:]).decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8 or not JSON
        return None
    # '[' and ']' occur nowhere else outside strings, so a list at key is this one
    if not isinstance(doc, dict) or doc.get(key) != []:
        return None
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool):
        return None
    values = _parse_digits(raw, lo + 1, hi, d if key == "states" else None)
    return None if values is None else (d, values)


def _parse_digits(raw: bytes, start: int, stop: int, top: int | None):
    """raw[start:stop] less one when it is comma-separated JSON non-negative
    integers of at most 18 digits (so none wraps), else None: int64, or
    state_dtype(top) when every value lies in [1, top] (else None). Parsed
    about _CHUNK_BYTES at a time, each chunk ending at a comma, and each
    chunk range-checked before it is cast."""
    dtype = np.int64 if top is None else state_dtype(top)
    out = np.empty(raw.count(b",", start, stop) + (stop > start), dtype=dtype)
    data = np.frombuffer(raw, dtype=np.uint8)
    k = 0
    while start < stop:
        end = raw.find(b",", min(start + _CHUNK_BYTES, stop), stop)
        end = stop if end < 0 else end
        chunk = data[start:end]
        digits = chunk - np.uint8(_ZERO)  # bytes below '0' wrap to above 9
        ends = np.append(np.flatnonzero(chunk == _COMMA), chunk.size)
        lengths = np.diff(ends, prepend=-1) - 1
        longest = int(lengths.max())
        if (np.count_nonzero(digits <= 9) != chunk.size - (ends.size - 1)  # not digits or commas
                or lengths.min() < 1 or longest > 18  # empty item, or one that may wrap
                or longest > 1 and np.any((digits[ends - lengths] == 0) & (lengths > 1))):  # 01
            return None
        values = digits[ends - 1].astype(np.int64)
        for j in range(1, longest):
            live = np.flatnonzero(lengths > j)
            values[live] += digits[ends[live] - 1 - j].astype(np.int64) * 10**j
        values -= 1
        if top is not None and (values.min() < 0 or int(values.max()) >= top):
            return None
        out[k : k + ends.size] = values
        k += ends.size
        start = end + 1
    # a trailing comma leaves an empty last item unparsed
    return out if k == out.size else None


def _ascii(values: np.ndarray) -> np.ndarray:
    """The decimal digits of uint64 values as uint8 text, each followed by a
    comma. Each value is laid out right-aligned in a row as wide as the
    widest; the rows are joined, less their unused leading bytes."""
    ndigits = np.ones(values.size, dtype=np.int64)
    for power in _POW10[_POW10 <= values.max()]:
        ndigits += values >= power
    widest = int(ndigits.max())
    rows = np.empty((values.size, widest + 1), dtype=np.uint8)
    rows[:, -1] = _COMMA
    for col in range(widest - 1, -1, -1):
        quotient = values // np.uint64(10)  # numpy divides by a scalar faster than it takes %
        rows[:, col] = values - quotient * np.uint64(10) + np.uint64(_ZERO)
        values = quotient
    if ndigits.min() == widest:
        return rows.ravel()
    first = widest - ndigits  # column of each value's first byte
    return np.compress((np.arange(widest + 1) >= first[:, None]).ravel(), rows)


def _write(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
