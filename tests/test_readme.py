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


def test_test_command_output_matches_golden():
    shown = re.search(r"```sh\nfbst test --draws tests/data/draws.csv --null 0 "
                      r"--dim-theta 3 --dim-null 2\n```\n\n```\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.DOTALL)
    assert shown
    golden = Path(__file__).parent / "data" / "golden_summary.txt"
    assert shown.group(1) == golden.read_text(encoding="utf-8")
