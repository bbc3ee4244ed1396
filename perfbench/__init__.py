"""Seeded end-to-end and per-layer benchmark of fringelab (see run.py)."""
