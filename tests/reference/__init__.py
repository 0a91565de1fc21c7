"""Executable specifications that the optimized code in ``src/`` is checked against.

Each module keeps a straightforward version of a routine that ``src/``
rewrote or folded: loop-based versions of the clustering, graph and
featurization code, the original two-method Adam/AdamW step and full
backward pass, and the ranking loops DAL and DIAL each wrote out before they
shared one.  The oracle tests require the code in ``src/`` to match it
exactly, or within a tolerance stated in the test where the summation order
changed.  Nothing under ``src/`` imports from here.
"""
