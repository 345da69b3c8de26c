"""The named constants a caller can override.

All O(.)/Omega(.) statements in the underlying guarantees carry hidden
constants. The two multipliers a caller varies are one record here, with
calibrated defaults, overridable through the CLI's --config.

Calibration provenance (scripts/calibrate_constants.py):
  c_iid   iid tester sample-size multiplier; 4 achieves the two-sided
          delta + 0.04 operating characteristic on alphabets of size 4-50.
  c_len   trajectory budget multiplier; 2 makes the single-trajectory tester
          hit >= 0.6 accept/reject rates on the acceptance corpus.

Constants that no caller varies are module constants next to their one
reader instead: sampling.C_VIS (the visit-count event of required_visits),
partition.C2 and partition.C3 (the component and tail thresholds),
partition.BOURGAIN_REPS (the embedding's repetitions) and partition.C_ESC
(the tail-escape event of tail_occupancy_check).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isfinite


@dataclass(frozen=True)
class Constants:
    c_iid: float = 4.0
    c_len: float = 2.0

    def to_dict(self) -> dict:
        return asdict(self)

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
