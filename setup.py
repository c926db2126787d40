"""Setuptools shim.

This file is the package's only metadata (the tree has no pyproject.toml),
so ``pip install -e . --no-use-pep517`` (and plain ``python setup.py
develop``) work in offline environments that lack the ``wheel`` package
required by PEP 517 editable builds.  Tests, tools and the benchmark do not
need an install: they run from the checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of 'Operating System Support for Mobile Agents' "
                 "(TACOMA, HotOS 1995)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
