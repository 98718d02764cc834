"""Benchmark for the hybrid-AARA pipeline; see README.md."""
