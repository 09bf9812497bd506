"""Package version."""

__version__ = "8.2.0"
