"""System benchmark: four workloads, end-to-end metrics, a per-layer bill.

Run ``python3 bench/run.py --help``; see ``bench/README.md``.
"""
