"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration input."""


class UnknownNodeError(LookupError):
    """Raised when a node id does not exist in the topology."""


class NoPathError(RuntimeError):
    """Raised when route discovery cannot produce any source-to-sink path."""
