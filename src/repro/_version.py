"""Package version."""

__version__ = "8.0.0"
