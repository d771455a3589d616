"""Whole-run benchmark of the UMI reproduction (see README.md)."""
