"""End-to-end benchmark of the reproduction CLI, with a per-layer trace
measured from outside the program.  Entry point: ``perfbench/run.py``."""
