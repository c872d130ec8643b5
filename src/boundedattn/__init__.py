"""Bounded-memory attention: fixed slot counts, control-vector writes,
batch/recurrent equivalence, and a toy trainer plus decode benchmarks."""

__version__ = "0.1.0"
