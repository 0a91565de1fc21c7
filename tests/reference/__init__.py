"""Executable specifications that the optimized code in ``src/`` is checked against.

Each module keeps a straightforward, loop-based version of a rewritten
routine.  The oracle tests in this package require the rewrite to match it
exactly, or within a tolerance stated in the test where the summation order
changed.  Nothing under ``src/`` imports from here.
"""
