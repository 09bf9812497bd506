"""Benchmark of the PipeFill cluster simulator (see README.md)."""
