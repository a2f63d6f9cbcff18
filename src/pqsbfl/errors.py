"""Exception types shared across the simulator."""


class PqsBflError(Exception):
    """Base class for all simulator errors."""


# -- signature suite --------------------------------------------------------

class UnsupportedScheme(PqsBflError):
    """The requested signature backend is not available in this build."""


class MalformedKey(PqsBflError):
    """A key pair is missing material or carries wrong-sized encodings."""


# -- federated core ---------------------------------------------------------

class InvalidDimensions(PqsBflError):
    """Dataset dimensions violate the generator's preconditions."""


class TooManyClients(PqsBflError):
    """More partitions requested than there are samples."""


class LayoutMismatch(PqsBflError):
    """Model parameter layouts disagree between operands."""


class EmptyUpdateSet(PqsBflError):
    """Aggregation was asked to average zero client updates."""


# -- ledger -----------------------------------------------------------------

class InfeasibleCalibration(PqsBflError):
    """Gas targets are too small to leave a nonnegative verification cost."""


# -- protocol ---------------------------------------------------------------

class NoVerifiedUpdates(PqsBflError):
    """Every client submission in a round was rejected; the round is aborted."""


# -- benchmark CLI ----------------------------------------------------------

class ParseError(PqsBflError):
    """A config file or flag could not be parsed."""


class ValidationError(PqsBflError):
    """One or more config constraints are violated.

    ``violations`` lists every failed constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
