"""Exception hierarchy for mcident.

Every error raised by the library derives from ChainTestError so callers can
catch one base class at API boundaries (the CLI maps them to exit code 2,
except CertificationFailed which maps to 3).
"""


class ChainTestError(Exception):
    """Base class for all mcident errors."""


class MalformedMatrix(ChainTestError):
    """Matrix is not row-stochastic within tolerance, or has bad shape."""


class MalformedDistribution(ChainTestError):
    """Vector is not a probability distribution within tolerance."""


class ShapeMismatch(ChainTestError):
    """Operands have incompatible dimensions or index sets."""


class NotIrreducible(ChainTestError):
    """Operation requires an irreducible chain."""


class NotReversible(ChainTestError):
    """Operation requires a reversible chain."""


class AlphaOutOfRange(ChainTestError):
    """Mixing/laziness parameter outside [0, 1]."""


class EmptySubset(ChainTestError):
    """State subset must be nonempty."""


class BadSubset(ChainTestError):
    """State subset violates the operation's containment preconditions."""


class NegativeEntry(ChainTestError):
    """Matrix must be entrywise nonnegative."""


class ZeroDenominator(ChainTestError):
    """Reference distribution must be entrywise positive."""


class ZeroMassSubset(ChainTestError):
    """Subset carries no probability mass under the given distribution."""


class TooLarge(ChainTestError):
    """Brute-force enumeration guard tripped (subset enumeration is 2^d)."""


class BadArgs(ChainTestError):
    """Scalar argument outside its documented domain."""


class BadNu(ChainTestError):
    """Anchor distribution must vanish off the component and be positive on it."""


class AlphabetMismatch(ChainTestError):
    """Reference distribution is not a valid finite distribution."""


class TooFewSamples(ChainTestError):
    """Sample count below the size bound required by the tester contract."""


class Infeasible(ChainTestError):
    """LP reported infeasible; cannot occur for valid inputs (internal error)."""


class SolverStall(ChainTestError):
    """LP solver stopped without an optimum (unbounded, a limit or numerics)."""


class DegenerateEmbedding(ChainTestError):
    """All embedded points coincide; caller should retry with a fresh seed."""


class CertificationFailed(ChainTestError):
    """A partition postcondition failed under brute-force checking.

    Signals an implementation bug, not an input problem.
    """


class NotReversibleReference(ChainTestError):
    """Identity test requires an irreducible reversible reference chain."""


class TrajectoryAlphabetMismatch(ChainTestError):
    """Trajectory states incompatible with the reference chain's state space."""
