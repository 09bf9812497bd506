"""Package version."""

__version__ = "5.1.0"
