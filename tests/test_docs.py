"""The README's layout block names every module of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^\s+(\w+)\.py\s", block, flags=re.MULTILINE)
    modules = sorted(p.stem for p in (ROOT / "src" / "lsqbounds").glob("*.py") if p.stem != "__init__")
    assert sorted(listed) == modules
