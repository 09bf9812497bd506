"""Package version."""

__version__ = "7.0.0"
