import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run():
    assert len(BLOCKS) == 2
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
