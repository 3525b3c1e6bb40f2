"""The README's code runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    namespace: dict = {}
    exec(compile(block, f"{README}:Library use", "exec"), namespace)
    split, z = namespace["split"], namespace["z"]
    assert z.shape == (len(split.test), namespace["model"].arch.d_z)
