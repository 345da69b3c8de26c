"""Named constants behind every asymptotic bound used by the pipeline.

All O(.)/Omega(.) statements in the underlying guarantees carry hidden
constants. They are surfaced here as one record with calibrated defaults so
that every bound used at runtime is explicit and overridable (CLI --config).

Calibration provenance (scripts/calibrate_constants.py):
  c_vis   visit-count bound multiplier; 40 gives >= 1-delta event frequency
          on the calibration corpus (20 reversible chains, d <= 8).
  c_iid   iid tester sample-size multiplier; 4 achieves the two-sided
          delta + 0.04 operating characteristic on alphabets of size 4-50.
  c_len   trajectory budget multiplier; 2 makes the single-trajectory tester
          hit >= 0.6 accept/reject rates on the acceptance corpus.
  c_esc   escape-count threshold multiplier 1/32, matching the block-length
          argument (blocks of 8 log(1/pi_star)/alpha^2 steps, escape
          probability >= 1/2 per block, half of the blocks succeed).
  c2, c3  partition certification constants for component expansion and
          tail leakage; 1/64 passes the planted-model corpus.
  bourgain_reps  repetitions per scale in the l1 embedding (times log n).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import isfinite


@dataclass(frozen=True)
class Constants:
    c_vis: float = 40.0
    c_iid: float = 4.0
    c_len: float = 2.0
    c_esc: float = 1.0 / 32.0
    c2: float = 1.0 / 64.0
    c3: float = 1.0 / 64.0
    bourgain_reps: float = 8.0

    def to_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Constants":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "Constants":
        if not isinstance(d, dict):
            raise ValueError("constants must be a JSON object")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown constant names: {sorted(unknown)}")
        for name, value in d.items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not isfinite(value) or value <= 0):
                raise ValueError(f"constant {name}={value!r} is not a finite positive number")
        return cls(**d)


DEFAULT_CONSTANTS = Constants()
