"""Exception hierarchy for the ioncavity package."""


class IonCavityError(Exception):
    """Base class for all errors raised by this package."""


class ValidityError(IonCavityError):
    """A closed-form expression was evaluated outside its domain of validity.

    Raised when a logarithm argument or square-root argument in the
    squeezed-thermal parameter formulas is out of range.  The message names
    the offending parameter point; values are never silently clamped.
    """


class RegimeError(IonCavityError):
    """The requested operation is undefined in this coupling regime."""


class TruncationError(IonCavityError):
    """A Fock-space construction cannot be carried out within its budget."""


class IntegrationError(IonCavityError):
    """The Fock-space propagator refused a run or failed a check on its states."""


class ConfigError(IonCavityError):
    """An invalid run configuration was supplied."""
