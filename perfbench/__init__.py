"""End-to-end and per-layer benchmark for chamferlab; see README.md."""
