"""The README names only what the package has."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def resolve(dotted):
    """The object a dotted name stands for: its longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_magh_names_resolve():
    names = re.findall(r"`(magh(?:\.\w+)+)`", README.read_text())
    assert names
    missing = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
