"""Setuptools configuration of the ``repro`` package.

The project has no ``pyproject.toml``: this file declares the whole package,
its ``src`` layout, the supported Python versions and the one runtime
dependency.  The test suite, the benchmarks and the CLI also run from a
checkout without installing, with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
