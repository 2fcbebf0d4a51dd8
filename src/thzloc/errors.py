"""Error types raised by the library."""


class ConfigError(ValueError):
    """A scenario file, preset or field grid request is malformed."""


class GeometryError(ValueError):
    """A geometric computation received degenerate input.

    Raised for coincident transmit/receive points and for elevation angles
    at the arcsin branch point where the measurement Jacobian is undefined.
    """
