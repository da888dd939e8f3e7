import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert blocks
    namespace = {}  # later blocks build on names earlier ones define
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
