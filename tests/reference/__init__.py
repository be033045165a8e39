"""Independent per-item references the optimised code paths are tested against."""
