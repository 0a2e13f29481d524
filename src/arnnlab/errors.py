"""Exception types shared across the package."""


class ArnnError(Exception):
    """Base class for all domain errors raised by arnnlab."""


class HorizonExceeded(ArnnError):
    """A digit or table entry beyond the known horizon was requested."""


class UnknownSign(ArnnError):
    """The sign of a lazily-known value could not be decided within budget."""


class ShapeError(ArnnError):
    """Sequence or matrix dimensions do not match."""


class AlphabetError(ArnnError):
    """A string contains a symbol outside its alphabet."""


class MembershipUndecided(ArnnError):
    """A language's membership test returned None for a string."""


class EncodingError(ArnnError):
    """A value is not a valid encoding (e.g. not a Cantor-4 rational)."""


class ConstructionError(ArnnError):
    """A compiler input is invalid (e.g. nondeterministic machine)."""


class ConfigError(ArnnError):
    """A run was configured inconsistently (e.g. budget too small)."""


class RunTimeout(ArnnError):
    """A network run exhausted its tick budget without a verdict.

    The library reports timeouts as a verdict value; this exception exists
    for callers (like the CLI) that must surface them as errors.
    """


class LatticeError(ArnnError):
    """A degree label or order relation is invalid."""


class LabelMissing(ArnnError):
    """An oracle-backed scalar has no declared degree label."""


class FormatError(ArnnError):
    """A text file does not follow its documented format."""
