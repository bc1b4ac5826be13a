"""End-to-end benchmark of the repro package; run ``perfbench/run.py``."""
