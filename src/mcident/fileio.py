"""JSON file formats and report emission.

Formats (all JSON):
  matrix      {"d": n, "rows": [[...], ...]}         row-stochastic, 1e-8
  probvector  {"d": n, "p": [...]}
  trajectory  {"d": n, "states": [...]}              states are 1-based
  samples     {"d": K, "samples": [...]}             codes are 1-based

d is a JSON integer, and states and samples are lists of JSON integers;
anything else is a ChainTestError, and so is a file that is not UTF-8 text.
Rows are validated at 1e-8 and then renormalized exactly, so files produced
by other tools with print-rounded floats still load.

The save_* helpers write one line of JSON with sorted keys and no spaces.
Loaders parse with json.load, so any JSON layout is accepted, including the
indented files of earlier versions. Reports stay indented. All numbers in
emitted reports are rounded to 12 significant digits, which keeps reports
byte-identical across runs with the same manifest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .chain_core import ProbVector, TransitionMatrix
from .errors import ChainTestError, MalformedDistribution, MalformedMatrix
from .sampling import Trajectory

_FILE_TOL = 1e-8


def load_matrix(path) -> TransitionMatrix:
    doc = _read(path, MalformedMatrix)
    d = _dimension(doc, path, MalformedMatrix)
    try:
        rows = np.asarray(doc.get("rows"), dtype=float)
    except (ValueError, TypeError) as exc:
        raise MalformedMatrix(f"{path}: rows are not numeric: {exc}") from None
    if rows.ndim != 2 or rows.shape != (d, d):
        raise MalformedMatrix(f"{path}: rows shape {rows.shape} does not match d={d}")
    sums = rows.sum(axis=1)
    if np.abs(sums - 1.0).max() > _FILE_TOL or rows.min() < -_FILE_TOL:
        raise MalformedMatrix(f"{path}: rows must sum to 1 within {_FILE_TOL}")
    rows = np.clip(rows, 0.0, None)
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


def save_matrix(P: TransitionMatrix, path) -> None:
    rows = [[float(x) for x in row] for row in P.entries]
    _write(path, round12({"d": P.d, "rows": rows}))


def load_probvector(path) -> ProbVector:
    doc = _read(path, MalformedDistribution)
    d = _dimension(doc, path, MalformedDistribution)
    try:
        p = np.asarray(doc.get("p"), dtype=float)
    except (ValueError, TypeError) as exc:
        raise MalformedDistribution(f"{path}: p is not numeric: {exc}") from None
    if p.ndim != 1 or p.shape[0] != d:
        raise MalformedDistribution(f"{path}: p shape {p.shape} does not match d={d}")
    if abs(p.sum() - 1.0) > _FILE_TOL or p.min() < -_FILE_TOL:
        raise MalformedDistribution(f"{path}: p must sum to 1 within {_FILE_TOL}")
    p = np.clip(p, 0.0, None)
    return ProbVector(p / p.sum())


def save_probvector(p: ProbVector, path) -> None:
    _write(path, round12({"d": p.d, "p": [float(x) for x in p.entries]}))


def load_trajectory(path) -> Trajectory:
    doc = _read(path)
    d = _dimension(doc, path)
    return Trajectory(d=d, states=_integers(doc, "states", path) - 1)


def save_trajectory(traj: Trajectory, path) -> None:
    _write(path, {"d": int(traj.d), "states": (traj.states + 1).tolist()})


def load_samples(path) -> tuple[int, np.ndarray]:
    """Integer-alphabet samples; returns (alphabet size, 0-based int64 codes)."""
    doc = _read(path)
    d = _dimension(doc, path)
    return d, _integers(doc, "samples", path) - 1


def save_samples(d: int, samples, path) -> None:
    codes = np.asarray(samples, dtype=np.int64)
    _write(path, {"d": int(d), "samples": (codes + 1).tolist()})


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def round12(obj):
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_report(doc: dict, path=None) -> str:
    """Serialize a report deterministically; write to path or stdout."""
    text = json.dumps(round12(doc), indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
    return text


def _read(path, error: type[ChainTestError] = ChainTestError) -> dict:
    """Parse a JSON input file; raise `error` unless it is UTF-8 text holding
    an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _dimension(doc: dict, path, error: type[ChainTestError] = ChainTestError) -> int:
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool):
        raise error(f"{path}: d must be an integer, got {d!r}")
    return d


def _integers(doc: dict, key: str, path) -> np.ndarray:
    """The list doc[key] as an int64 array; anything but a flat list of
    integers is an error (floats would otherwise be truncated silently)."""
    error = ChainTestError(f"{path}: {key} must be a list of integers")
    try:
        arr = np.asarray(doc.get(key, []))
    except ValueError:  # ragged nesting
        raise error from None
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise error
    return arr.astype(np.int64)


def _write(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
