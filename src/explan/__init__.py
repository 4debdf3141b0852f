"""Cost-optimal STRIPS planning with model-reconciliation explanations."""

from .model import apply_features

__version__ = "0.1.0"


def fixture_path(name: str):
    """Filesystem path of a bundled example domain/problem/suite file."""
    from importlib.resources import files
    from pathlib import Path

    return Path(str(files("explan") / "fixtures" / name))
