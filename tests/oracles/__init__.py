"""Differential oracles: the original object-per-wire and pure-Python
implementations that the engines in ``src/repro`` are tested against."""
