"""The README's python examples run against the current library."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(),
                            re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
