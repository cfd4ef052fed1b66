"""Locating and importing the library under test from this checkout's ``src``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_levyruin():
    """Import levyruin from ``src/`` of this checkout, never from anywhere else.

    Raises FileNotFoundError when the checkout has no sources.
    """
    init = SRC / "levyruin" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no levyruin sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import levyruin

    if Path(levyruin.__file__).resolve() != init.resolve():
        raise ImportError(f"levyruin imported from {levyruin.__file__}, not {init}")
    return levyruin


def build_model(key: str):
    from levyruin.models import model_from_dict

    from workloads import MODELS

    return model_from_dict(dict(MODELS[key]))
