"""Exception types raised across the package."""


class TubalError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(TubalError):
    """Operands disagree on a dimension.

    Carries the axis name (``"rows"``, ``"columns"``, ``"tubes"``,
    ``"inner"``) together with the two offending sizes.
    """

    def __init__(self, axis, left, right):
        super().__init__(f"{axis} mismatch: {left} vs {right}")
        self.axis = axis
        self.left = left
        self.right = right


class NearSingularTube(TubalError):
    """A tube divisor has a Fourier entry below the singularity gate."""

    def __init__(self, face_index, magnitude, gate):
        super().__init__(
            f"Fourier entry {face_index} has magnitude {magnitude:.3e}, "
            f"below the gate {gate:.3e}"
        )
        self.face_index = face_index
        self.magnitude = magnitude
        self.gate = gate


class SingularFace(TubalError):
    """A Fourier-domain frontal face is numerically singular."""

    def __init__(self, face_index, detail=""):
        msg = f"Fourier face {face_index} is numerically singular"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.face_index = face_index


class SingularShift(TubalError):
    """The shifted tensor cannot be factored (the shift hits the spectrum)."""


class ZeroSlice(TubalError):
    """A lateral slice expected to be nonzero has no nonzero tube."""


class NotAnEigentube(TubalError):
    """The supplied tube misses the spectrum on at least one Fourier face."""

    def __init__(self, face_index, distance):
        super().__init__(
            f"face {face_index}: nearest eigenvalue is {distance:.3e} away"
        )
        self.face_index = face_index
        self.distance = distance


class DefectiveFace(TubalError):
    """No eigenvector is recoverable at tolerance on some Fourier face."""

    def __init__(self, face_index, residual):
        super().__init__(
            f"face {face_index}: eigenvector residual {residual:.3e} exceeds tolerance"
        )
        self.face_index = face_index
        self.residual = residual


class BadPairing(TubalError):
    """The deflation pairing product deviates from the unit tube."""


class ShiftCollision(TubalError):
    """A deflation shift collides with the remaining spectrum on some face."""


class DivisionFailure(TubalError):
    """An iteration's scaling tube stayed near singular through all restarts."""


class NonFiniteInput(TubalError):
    """An input tensor holds a NaN or infinite entry."""


class NoConvergence(TubalError):
    """An iterative solver hit its iteration cap.

    ``result`` carries the partial solver output so callers can report it.
    """

    def __init__(self, iterations, last_residual, result=None, detail=""):
        msg = f"no convergence after {iterations} iterations"
        if last_residual is not None:
            msg += f" (last residual {last_residual:.3e})"
        if detail:
            msg += f"; {detail}"
        super().__init__(msg)
        self.iterations = iterations
        self.last_residual = last_residual
        self.result = result


class MalformedFile(TubalError):
    """A tensor file failed header, size, or checksum validation."""


class UnknownKind(TubalError):
    """An unrecognized test-tensor kind was requested."""


class UnknownFormat(TubalError, ValueError):
    """A file suffix names no format that tubal reads or writes."""
