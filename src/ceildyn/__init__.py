"""Exact and windowed arithmetic dynamics of x*ceil(x) and r*ceil(x) maps."""

__version__ = "0.1.0"
