"""Reusable map_batches stage callables (per-batch kernels, run as tasks)."""
