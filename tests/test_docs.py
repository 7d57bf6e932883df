"""The README names only what the package has, and its cap examples are exact."""

import importlib
import re
from pathlib import Path

import pytest

from magh.algebra import HomologyGroup
from magh.chains import length_spectra
from magh.errors import EnumerationCapExceeded
from magh.metric import complete_space, path_space
from magh.posets import magnitude_homology_rows

from test_posets import rp2_face_poset_space

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
    text = README.read_text()
    names = re.findall(r"`(magh(?:\.\w+)+)`", text)
    assert names
    # the entry points are named in dotted form, so each one is checked
    # here; a bare name could outlive its function
    entry_points = re.search(r"Other entry points:(.*?)\n\n", text, re.S).group(1)
    quoted = re.findall(r"`([^`]+)`", entry_points)
    assert len(quoted) > 20
    assert [name for name in quoted if not name.startswith("magh.")] == []
    missing = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_readme_rp2_cap_count_is_exact():
    # the Enumeration cap section's RP^2 example: the stated step count
    # passes the cap and one less does not
    text = " ".join(README.read_text().split())
    found = re.search(
        r"RP² face-poset space at `compute --l 4 --n-max 3` takes ([\d,]+) steps "
        r"\(([\d,]+) prefixes and ([\d,]+) insertions\)",
        text,
    )
    assert found
    count, prefixes, insertions = (int(g.replace(",", "")) for g in found.groups())
    assert count == prefixes + insertions
    space = rp2_face_poset_space()[0]
    with pytest.raises(EnumerationCapExceeded) as exc:
        magnitude_homology_rows(space, [4], 3, cap=count - 1)
    assert (exc.value.count, exc.value.cap) == (count, count - 1)
    rows = magnitude_homology_rows(rp2_face_poset_space()[0], [4], 3, cap=count)
    assert rows[3].group == HomologyGroup(450, (2, 2))


def test_readme_spectrum_cap_count_is_exact():
    # the length count's example: its step count passes the cap and one
    # less does not, and degree 6 has N(N-1)^6 chains
    text = " ".join(README.read_text().split())
    found = re.search(
        r"`magh gen path 10 \| magh compute --n-max 6` finds its gradings in ([\d,]+) steps, "
        r"where degree 6 alone has ([\d,]+) chains",
        text,
    )
    assert found
    count, chains = (int(g.replace(",", "")) for g in found.groups())
    space = path_space(10)
    with pytest.raises(EnumerationCapExceeded) as exc:
        length_spectra(space, 6, cap=count - 1)
    assert (exc.value.count, exc.value.cap) == (count, count - 1)
    spectra = length_spectra(space, 6, cap=count)
    assert sum(spectra[6].counts) == chains == 10 * 9**6


def test_readme_frame_count_cap_count_is_exact():
    # the frame count's example: m_X of K_5 is infinite, so every grading
    # is counted over frames; its tuples pass the cap and one less does not
    text = " ".join(README.read_text().split())
    found = re.search(
        r"`magh gen complete 5 \| magh compute --n-max 4` reaches ([\d,]+) frame tuples", text
    )
    assert found
    count = int(found.group(1).replace(",", ""))
    space = complete_space(5)
    with pytest.raises(EnumerationCapExceeded) as exc:
        magnitude_homology_rows(space, [1, 2, 3, 4], 4, cap=count - 1)
    assert (exc.value.count, exc.value.cap) == (count, count - 1)
    rows = magnitude_homology_rows(complete_space(5), [1, 2, 3, 4], 4, cap=count)
    assert rows == magnitude_homology_rows(space, [1, 2, 3, 4], 4)
