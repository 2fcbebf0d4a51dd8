"""Error types raised by the library."""


class ConfigError(ValueError):
    """A scenario or a field grid request is malformed: a ScenarioConfig,
    from a file or built in code, raises it when it breaks a rule."""


class GeometryError(ValueError):
    """A geometric computation received degenerate input.

    Raised for coincident transmit/receive points and for elevation angles
    at the arcsin branch point where the measurement Jacobian is undefined.
    """
