"""The README's Library example, run as written, and the values its comments
state."""

import re
from pathlib import Path
from types import ModuleType

import periwiener
from periwiener.corpus import distance_sums
from periwiener.indices import Profile

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_its_comments_hold():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    g, p, balls, peri = ns["g"], ns["p"], ns["balls"], ns["peri"]
    comments = " ".join(line.partition("#")[2].strip() for line in block.splitlines())

    assert g.masks == (0b01110, 0b00001, 0b00001, 0b10001, 0b01000)
    assert f"({', '.join(f'{mask:#07b}' for mask in g.masks)})" in comments
    assert p == Profile(n=5, m=4, diameter=3, radius=2, k=3, pendant_count=3,
                        w=18, ww=28, pw=8, pww=15, tw=8, tww=15)
    assert repr(p) in comments
    assert peri == 0b10110 and f"{peri:#07b}" in comments
    assert distance_sums(balls, peri) == [4, 5, 5, 5, 6]
    assert str(distance_sums(balls, peri)) in comments
    assert ns["dm"].periphery == {1, 2, 4}


def test_package_root_binds_only_its_submodules():
    public = [name for name in vars(periwiener) if not name.startswith("_")]
    assert all(isinstance(getattr(periwiener, name), ModuleType) for name in public)
