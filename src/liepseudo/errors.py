"""Exception types shared across the package."""


class LiePseudoError(Exception):
    """Base class for all package errors."""


class AntisymmetryViolation(LiePseudoError):
    pass


class JacobiViolation(LiePseudoError):
    def __init__(self, i: int, j: int, k: int, defect):
        self.triple = (i, j, k)
        self.defect = defect
        super().__init__(f"Jacobi identity fails on basis triple {(i + 1, j + 1, k + 1)}: "
                         f"defect ({', '.join(map(str, defect))})")


class DimensionMismatch(LiePseudoError):
    pass


class DegreeOutOfRange(LiePseudoError):
    pass


class TruncationExceeded(LiePseudoError):
    pass


class NotInW0(LiePseudoError):
    pass


class SolveFailed(LiePseudoError):
    pass


class DimensionTooSmall(LiePseudoError):
    pass


class RepInvalid(LiePseudoError):
    pass


class InvalidTraceForm(LiePseudoError):
    pass


class ConfigError(LiePseudoError):
    pass
