"""The errors mcident raises on purpose.

There are three, one for each way a caller handles them:

* ChainTestError: a refused input or argument. Its message says what was
  refused, and the file's name first when it came from a file. The CLI
  prints it as one `error: ` line and exits 2.
* CertificationFailed: a partition postcondition failed under brute-force
  checking. The CLI exits 3.
* DegenerateEmbedding: every embedded point coincides; the cut LP's
  rounding re-seeds and tries again.

A failure that no input can cause, such as a cut LP that HiGHS does not
solve, is a RuntimeError, which the CLI reports as an internal error
(exit 4).
"""


class ChainTestError(Exception):
    """Refused input or argument; the base class of the package's errors."""


class CertificationFailed(ChainTestError):
    """A partition postcondition failed under brute-force checking.

    Signals an implementation bug, not an input problem.
    """


class DegenerateEmbedding(ChainTestError):
    """All embedded points coincide; caller should retry with a fresh seed."""
