"""Seeded end-to-end and per-layer benchmark of chainbrackets (see README.md)."""
