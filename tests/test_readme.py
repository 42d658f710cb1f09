"""The README's documented library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_python(heading: str) -> str:
    """The first ```python block under the README's ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(_section_python("Library"), str(README), "exec"), namespace)
    assert namespace["blocks"].K == 1.0
