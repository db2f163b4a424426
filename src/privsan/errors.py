"""Exception types shared across the package."""


class PrivsanError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(PrivsanError):
    pass


class ZeroNormInput(PrivsanError):
    pass


class RankDeficient(PrivsanError):
    pass


class NonPositiveInput(PrivsanError):
    pass


class InfeasibleBound(PrivsanError):
    """The requested utility floor cannot be met under the grid constraint."""


class BoundOverflow(PrivsanError):
    """A certificate quantity exceeds the float64 range."""


class GammaOutOfRange(PrivsanError):
    pass


class NonPositiveResult(PrivsanError):
    pass


class DegenerateMatrix(PrivsanError):
    pass


class SingularSample(PrivsanError):
    pass


class InsufficientData(PrivsanError):
    pass


class InsufficientPoints(PrivsanError):
    pass


class EmptyDataset(PrivsanError):
    pass


class ConfigInvalid(PrivsanError):
    pass


class SchemaMismatch(PrivsanError):
    pass


class OutputUnwritable(PrivsanError):
    """A result file could not be written after the work was done."""


class ParseError(PrivsanError):
    def __init__(self, row: int, column: str, message: str = ""):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")
