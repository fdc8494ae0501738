"""README's library example runs, and it imports exactly the public API."""

from __future__ import annotations

import re
from pathlib import Path

import slopecover

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Library use"):]


def test_library_example_runs_on_the_exported_names(capsys):
    example = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    block = re.search(r"from slopecover import \((.*?)\)", example, re.S).group(1)
    imported = {name.strip() for name in block.split(",")} - {""}
    assert imported <= set(slopecover.__all__)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves_and_is_documented():
    section = library_section()
    for name in slopecover.__all__:
        assert getattr(slopecover, name) is not None
        assert re.search(rf"\b{name}\b", section), f"README's library section does not name {name}"
