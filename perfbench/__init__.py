"""Benchmark of the apdiff solvers; see ``run.py`` and ``NOTES.md``."""
