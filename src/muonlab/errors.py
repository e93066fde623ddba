"""Exception types shared across the library."""


class MuonLabError(Exception):
    """Base class for all library errors."""


class PreconditionError(MuonLabError, ValueError):
    """An operation was called with inputs violating its documented contract."""


class NumericalDivergenceError(MuonLabError, RuntimeError):
    """A trajectory was aborted: its loss was not finite, or (the
    ``RankDeficiencyError`` subclass) a step could not be taken.

    Carries the offending iteration index and the records logged so far,
    so callers can persist a diagnostic row instead of losing the run; an
    update kernel, which does not know the iteration, leaves it None and
    ``run_trajectory`` re-raises with both.
    """

    def __init__(self, message: str, iteration: int | None = None, records=None):
        super().__init__(message)
        self.iteration = iteration
        self.records = records if records is not None else []


class RankDeficiencyError(NumericalDivergenceError, ValueError):
    """A matrix that must be (numerically) full rank is not."""


class ConfigError(MuonLabError, ValueError):
    """An experiment config file could not be parsed or validated."""


class TieEventError(MuonLabError, RuntimeError):
    """A SignGD hard-instance run hit the undefined switching tie.

    The adversarial constructions avoid ties by design, so this signals an
    implementation bug rather than an unlucky input.
    """
