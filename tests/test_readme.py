"""The README's documented examples run as written."""

import json
import re
from pathlib import Path

from jetfinsler.cli import parse_scenario, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_blocks(heading: str, language: str) -> list[str]:
    """The ```language blocks under the README's ``## heading``, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", section, re.S)
    assert blocks, f"no {language} block under '## {heading}'"
    return blocks


def test_library_example_runs():
    # the blocks share one namespace: the EM block reads the first's context
    namespace = {}
    blocks = _section_blocks("Library", "python")
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["blocks"].K == 1.0
    assert {"em", "emd"} <= set(namespace)


def test_scenario_example_passes():
    doc = json.loads(_section_blocks("Command line", "json")[0])
    report, ok = run_scenario(parse_scenario(doc))
    summary = report["summary"]
    assert ok and summary["all_pass"]
    assert (summary["points_total"], summary["points_errored"]) == (101, 0)
