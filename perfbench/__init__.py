"""perfbench: the end-to-end + per-layer benchmark of vitex.

Run ``python3 -m perfbench`` from the repository root; see README.md here.
"""
