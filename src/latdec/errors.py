"""Exception hierarchy.

Split by how the command line reports them: InvalidInputError means the
input file itself is malformed (exit 1), PreconditionError subclasses mean
the input parsed fine but violates a mathematical precondition (exit 2),
RankTooLargeError is the desk-scale guard (exit 3), and InternalError
subclasses signal bugs in this package, never bad input (exit 4).
"""


class LatdecError(Exception):
    pass


class InvalidInputError(LatdecError):
    """Malformed input: the message names the violated field or invariant."""


class PreconditionError(LatdecError):
    """Valid shape, invalid mathematics.  Carries a witness where possible."""


class NotPositiveDefiniteError(PreconditionError):
    """A Gram matrix failed positive definiteness.

    minor_index is the 1-based index of the first non-positive leading
    principal minor, when the failure was detected that way.
    """

    def __init__(self, message, minor_index=None):
        super().__init__(message)
        self.minor_index = minor_index


class NotPositiveInvolutionError(PreconditionError):
    """Trace form of x, y -> trace(x y*) is not symmetric positive definite.

    witness, when set, is an integer coordinate vector x with
    left_trace(x x*) <= 0.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidIdempotentsError(PreconditionError):
    """Input vectors are not a valid orthogonal Hermitian idempotent family."""


class InvalidHodgeStructureError(PreconditionError):
    """Endomorphism order of the given structure violates a required property."""


class NoSolutionError(LatdecError):
    """Linear system is inconsistent."""


class RankTooLargeError(LatdecError):
    """Desk-scale guard tripped; override with LATDEC_MAX_RANK."""


class InternalError(LatdecError):
    """Never caused by valid input; always an implementation bug."""


class IncompleteDecompositionError(InternalError):
    """Computed blocks do not span the full lattice."""
