"""Editable prompt assets with named placeholders."""

from functools import cache
from importlib import resources


@cache
def load(name: str) -> str:
    """The asset's text, read once per process: prompt assets are read-only package data."""
    return resources.files(__package__).joinpath(f"{name}.txt").read_text()
