"""Package version."""

__version__ = "5.0.0"
