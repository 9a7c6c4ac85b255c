"""Collaboration and productivity indicators from co-authorship corpora."""

__version__ = "0.1.0"
