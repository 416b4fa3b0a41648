"""Exception hierarchy for the Auric reproduction.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value violates its parameter specification."""


class UnknownParameterError(ConfigurationError):
    """A parameter name is not present in the parameter catalog."""


class UnknownCarrierError(ReproError):
    """A carrier identifier is not present in the network."""


class UnknownMarketError(ReproError):
    """A market identifier is not present in the network."""


class NotFittedError(ReproError):
    """A learner was asked to predict before :meth:`fit` was called."""


class EncodingError(ReproError):
    """One-hot encoding was asked to transform an unseen category."""


class GenerationError(ReproError):
    """The synthetic data generator was given inconsistent settings."""


class RecommendationError(ReproError):
    """The recommendation engine could not produce a recommendation."""


class OperationalError(ReproError):
    """An error in the operational (EMS / SmartLaunch) layer."""


class CarrierLockedError(OperationalError):
    """An EMS operation required an unlocked carrier (or vice versa)."""


class EMSTimeoutError(OperationalError):
    """The element management system timed out executing a change batch."""
