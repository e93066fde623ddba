"""Exception types shared across the library."""


class MuonLabError(Exception):
    """Base class for all library errors."""


class PreconditionError(MuonLabError, ValueError):
    """An operation was called with inputs violating its documented contract."""


class RankDeficiencyError(MuonLabError, ValueError):
    """A matrix that must be (numerically) full rank is not.

    Raised by an update kernel, ``run_trajectory`` re-raises it with the
    iteration whose step could not be taken and the records logged before
    it, as ``NumericalDivergenceError`` carries them.
    """

    def __init__(self, message: str, iteration: int | None = None, records=None):
        super().__init__(message)
        self.iteration = iteration
        self.records = records if records is not None else []


class NumericalDivergenceError(MuonLabError, RuntimeError):
    """A trajectory produced a non-finite loss.

    Carries the offending iteration index and the records logged so far,
    so callers can persist a diagnostic row instead of losing the run.
    """

    def __init__(self, message: str, iteration: int, records=None):
        super().__init__(message)
        self.iteration = iteration
        self.records = records if records is not None else []


class ConfigError(MuonLabError, ValueError):
    """An experiment config file could not be parsed or validated."""


class TieEventError(MuonLabError, RuntimeError):
    """A SignGD hard-instance run hit the undefined switching tie.

    The adversarial constructions avoid ties by design, so this signals an
    implementation bug rather than an unlucky input.
    """
