"""Closed-loop training benchmark for hgx; see README.md."""
