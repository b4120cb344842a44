"""Reactive task planning: behavior trees with active-inference leaves."""

__version__ = "0.1.0"
