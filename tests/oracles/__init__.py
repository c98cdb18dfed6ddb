"""Per-object reference implementations the batch kernels must match."""
