"""Package version."""

__version__ = "8.1.0"
