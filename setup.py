"""Kept for ``pip install -e .`` and the benchmark's ``setup.py build_ext --inplace`` step."""

from setuptools import setup

setup()
