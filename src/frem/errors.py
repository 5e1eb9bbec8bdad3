"""Exception types shared across the package."""


class FremError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatch(FremError):
    """Two grid functions do not live on the same grid."""


class InvalidSettings(FremError):
    """A parameter is outside its admissible range."""


class EmptyObservations(FremError):
    """A measurement record contains no observation pairs."""


class InsufficientSample(FremError):
    """Fewer sample curves than a neighbor-based estimator requires."""


class InsufficientSpread(FremError):
    """All relevant interpoint distances coincide; the likelihood is degenerate."""


class InsufficientNeighborhood(FremError):
    """Too few curves near the query point, even after adaptive widening."""


class RankDeficient(FremError):
    """Requested more components than the data support."""


class EmptyWindow(FremError):
    """Every kernel weight is zero at the query point."""


class DegenerateSample(FremError):
    """A sample has no variation where some is required."""


class ParseError(FremError):
    """A data file could not be parsed; the message names the location."""


class SchemaError(FremError):
    """A data file does not follow the documented column layout."""


class MethodMismatch(FremError):
    """Two reports do not cover the same set of methods."""


class AllFoldsFailed(FremError):
    """Every candidate failed on every cross-validation fold."""


class TooManyFailures(FremError):
    """More than the tolerated share of replicates errored."""
