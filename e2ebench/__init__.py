"""Paper-scale end-to-end benchmark of the self-join engine (see run.py)."""
