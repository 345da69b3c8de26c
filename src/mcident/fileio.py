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
into digits with numpy, a chunk of values at a time in the narrowest dtype
that holds d, never into a Python list. Samples files are read, not
written: no subcommand produces one, and json.dumps gives the same layout.

A trajectory or samples file whose only array is its states or samples,
written as non-negative integers of at most 18 digits with no whitespace,
is read by the chunk reader: the rest of the file, the array emptied, goes
through json.loads, and the array is parsed, range-checked and cast to its
narrow dtype one block of about _CHUNK_BYTES at a time, straight from the
open file. load_trajectory and load_samples join its chunks;
stream_trajectory checks the whole file in one pass and keeps none of it,
and its StateStream reads the file again for each scan, which stops at the
last visit it needs. Any other file, such as the indented files of earlier
versions, floats, negatives or a truncated file, is parsed with json.load,
which accepts any JSON layout and words every error; either way a state
outside [1, d] is refused with the same words. Reports stay indented. All
numbers in emitted reports are rounded to 12 significant digits, which
keeps reports byte-identical across runs with the same manifest, and a
non-finite float is written as null, so a report is strict JSON (RFC 8259).
file_digest hashes a file a block at a time."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from math import isfinite
from pathlib import Path

import numpy as np

from .chain_core import ProbVector, TransitionMatrix
from .errors import ChainTestError
from .sampling import StateStream, Trajectory, state_dtype

_FILE_TOL = 1e-8

# Values per chunk of the integer writer, and bytes per block of the integer
# reader and of file_digest: their temporaries stay this size however long
# the file is.
_CHUNK_VALUES, _CHUNK_BYTES = 1 << 16, 1 << 17
_ZERO, _COMMA = ord("0"), ord(",")
# the longest item the reader parses: 10**18 - 1 < 2**63, so none wraps
_DIGITS = 18


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
    try:
        return Trajectory(d=d, states=states)
    except ChainTestError as exc:
        raise ChainTestError(f"{path}: {exc}") from None


def stream_trajectory(path) -> Trajectory | StateStream:
    """The trajectory of a file, for scans that may stop early.

    One pass of the chunk reader checks every state of the file and counts
    them, keeping none, and so refuses what load_trajectory refuses, with
    the same words; the StateStream it returns opens the file again for
    each scan. A file the chunk reader does not parse is loaded whole by
    load_trajectory instead."""
    try:
        with open(path, "rb") as fh:
            d, start, stop = _compact_span(fh, "states")
            length = sum(len(chunk) for chunk in _parse_chunks(fh, start, stop, d, path))
    except _NotCompact:
        return load_trajectory(path)
    if not length:
        raise ChainTestError(f"{path}: trajectory must contain at least one state")

    def chunks():
        try:
            with open(path, "rb") as fh:
                yield from _parse_chunks(fh, start, stop, d, path)
        except _NotCompact:
            raise ChainTestError(f"{path}: changed while it was read") from None

    return StateStream(d, length, chunks)


def save_trajectory(traj: Trajectory, path) -> None:
    """Write {"d": d, "states": states + 1} in the bytes json.dumps(doc,
    sort_keys=True, separators=(",", ":")) + "\n" gives, turning the 0-based
    states into 1-based digits with numpy, _CHUNK_VALUES at a time. Each
    chunk is cast to np.min_scalar_type(d) before the + 1, which holds d,
    so a uint8 255 is written 256, not 0."""
    states = traj.states
    dtype = np.min_scalar_type(traj.d)
    text = json.dumps({"d": int(traj.d), "states": []}, sort_keys=True, separators=(",", ":"))
    cut = text.index("[]") + 1
    with open(path, "wb") as fh:
        fh.write(text[:cut].encode())
        for start in range(0, states.size, _CHUNK_VALUES):
            values = states[start : start + _CHUNK_VALUES].astype(dtype)
            values += 1
            ascii = _ascii(values)
            fh.write(ascii if start + _CHUNK_VALUES < states.size else ascii[:-1])
        fh.write(text[cut:].encode() + b"\n")


def load_samples(path) -> tuple[int, np.ndarray]:
    """Integer-alphabet samples; returns (alphabet size, 0-based int64 codes)."""
    return _load_integers(path, "samples")


def file_digest(path) -> str:
    """SHA-256 of the file, read 8 * _CHUNK_BYTES at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(8 * _CHUNK_BYTES):
            digest.update(block)
    return digest.hexdigest()


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
    state_dtype(d) when the chunk reader reads them and uint64 when they
    pass the int64 range. A trajectory's states must lie in [1, d] when d
    is positive."""
    try:
        with open(path, "rb") as fh:
            d, start, stop = _compact_span(fh, key)
            top = d if key == "states" else None
            dtype = np.int64 if top is None else state_dtype(top)
            values = np.concatenate([np.empty(0, dtype), *_parse_chunks(fh, start, stop, top, path)])
    except _NotCompact:
        doc = _read(path)
        d = _dimension(doc, path)
        values = _integers(doc, key, path)
        values -= 1
        if key == "states" and d >= 1 and values.size and (values.min() < 0 or int(values.max()) >= d):
            raise ChainTestError(f"{path}: states outside [1, {d}]") from None
    values.setflags(write=False)
    return d, values


class _NotCompact(Exception):
    """The file is not in the layout the chunk reader parses; json.load
    reads it instead."""


def _compact_span(fh, key: str) -> tuple[int, int, int]:
    """(d, start, stop) when the bytes of fh from its first '[' to its last
    ']' are the list doc[key], and the rest of the file, the list emptied,
    is a JSON object with an integer d (for "states", in [1, 2**64 - 1], the
    alphabets Trajectory takes). The list's items are bytes [start, stop).
    Only the first and the last block of the file are read. Raises
    _NotCompact for any other file, and when the '[' or the ']' lies outside
    those blocks."""
    head = fh.read(_CHUNK_BYTES)
    lo = head.find(b"[")
    size = fh.seek(0, os.SEEK_END)
    tail_at = max(size - _CHUNK_BYTES, 0)
    fh.seek(tail_at)
    tail = fh.read()
    hi = tail.rfind(b"]")
    if lo < 0 or hi < 0 or tail_at + hi <= lo:
        raise _NotCompact
    try:
        doc = json.loads((head[: lo + 1] + tail[hi:]).decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8 or not JSON
        raise _NotCompact from None
    # '[' and ']' occur nowhere else outside strings, so a list at key is this one
    if not isinstance(doc, dict) or doc.get(key) != []:
        raise _NotCompact
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or key == "states" and not 1 <= d <= 2**64 - 1:
        raise _NotCompact
    return d, lo + 1, tail_at + hi


def _parse_chunks(fh, start: int, stop: int, top: int | None, path):
    """Yield the items of bytes [start, stop) of fh less one, a block of
    about _CHUNK_BYTES at a time, when they are comma-separated JSON
    non-negative integers of at most _DIGITS digits: int64, or for a top,
    state_dtype(top) after a check that every item lies in [1, top].

    Each block is parsed between a comma put before it and its last comma
    (the last block, a comma put after it); the bytes after that comma open
    the next block. Raises _NotCompact at the first block that is not such a
    list, and a ChainTestError after the last block when some item lies
    outside [1, top]: no chunk is yielded after the first such item, and
    every block is still parsed, so json.load's own errors come first."""
    dtype = np.int64 if top is None else state_dtype(top)
    buf = bytearray(_CHUNK_BYTES + _DIGITS + 2)
    text = np.frombuffer(buf, dtype=np.uint8)
    buf[0] = _COMMA
    fh.seek(start)
    left, carry, outside = stop - start, 0, False
    while left:
        size = min(_CHUNK_BYTES, left)
        if fh.readinto(memoryview(buf)[1 + carry : 1 + carry + size]) != size:
            raise _NotCompact  # the file is shorter than it was
        left -= size
        end = 1 + carry + size
        if not left:
            buf[end] = _COMMA
            end += 1
        last = buf.rfind(b",", 0, end) + 1
        carry = end - last
        if carry > _DIGITS:  # an item too long for int64, or not an item
            raise _NotCompact
        values = _parse_items(text[:last])
        buf[1 : 1 + carry] = buf[last:end]
        if top is None:
            values = values.astype(dtype, copy=False)
        elif values.size and (values.min() < 1 or int(values.max()) > top):
            outside = True
        if not outside:
            values -= 1
            yield values.astype(dtype, copy=False)
    if outside:
        raise ChainTestError(f"{path}: states outside [1, {top}]")


def _parse_items(text: np.ndarray) -> np.ndarray:
    """The items of text, uint8 bytes that open and close with a comma, as
    integers in the narrowest of uint8, uint16, uint32 and int64 that holds
    their longest. Raises _NotCompact unless every item is one to _DIGITS
    digits with no leading zero."""
    if text.size % 2 and (text[::2] == _COMMA).all():  # one digit each
        values = text[1::2] - np.uint8(_ZERO)
        if values.size and values.max() > 9:  # bytes below '0' wrap to above 9
            raise _NotCompact
        return values
    digits = text - np.uint8(_ZERO)
    digit = digits <= 9
    commas = np.flatnonzero(text == _COMMA)
    lengths = np.diff(commas) - 1
    longest = int(lengths.max())
    if (np.count_nonzero(digit) != text.size - commas.size  # not digits or commas
            or lengths.min() < 1 or longest > _DIGITS  # empty item, or one that may wrap
            or np.any((text[:-2] == _COMMA) & (digits[1:-1] == 0) & digit[2:])):  # 01
        raise _NotCompact
    acc = np.uint8 if longest <= 2 else np.uint16 if longest <= 4 else np.uint32 if longest <= 9 else np.int64
    # place[i]: the number that the digits from byte i back to its item's
    # first spell, built up one place at a time over the whole block; run[i]:
    # bytes i - j .. i are all digits
    place = digits.astype(acc)
    run = digit.copy()
    for j in range(1, longest):
        run[j:] &= digit[:-j]
        run[:j] = False
        place[j:] += (digits[:-j] * run[j:]).astype(acc, copy=False) * acc(10**j)
    return place[commas[1:] - 1]


def _ascii(values: np.ndarray) -> np.ndarray:
    """The decimal digits of unsigned values as uint8 text, each followed by
    a comma, worked out in the values' own dtype. Each value is laid out
    right-aligned in a row as wide as the widest; the rows are joined, less
    their unused leading bytes."""
    widest = len(str(int(values.max())))
    ndigits = np.ones(values.size, dtype=np.int64)
    for k in range(1, widest):
        ndigits += values >= 10**k
    rows = np.empty((values.size, widest + 1), dtype=np.uint8)
    rows[:, -1] = _COMMA
    for col in range(widest - 1, -1, -1):
        quotient = values // 10  # numpy divides by a scalar faster than it takes %
        rows[:, col] = values - quotient * 10 + _ZERO
        values = quotient
    if ndigits.min() == widest:
        return rows.ravel()
    first = widest - ndigits  # column of each value's first byte
    return np.compress((np.arange(widest + 1) >= first[:, None]).ravel(), rows)


def _write(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
