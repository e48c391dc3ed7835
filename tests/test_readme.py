import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import escrowlab

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL).group(1)
PARAMS_FILE = re.search(
    r"\(`escrowlab solve --params trade\.kv --gamma 1/2`\):\n\n```\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL
).group(1)


def test_readme_python_examples_run():
    assert len(BLOCKS) == 2
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})


def run_bash(script, cwd):
    """Run `script` under bash -e in `cwd`, with `escrowlab` as `python -m escrowlab.cli`."""
    src = str(Path(escrowlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    define = f'escrowlab() {{ {shlex.quote(sys.executable)} -m escrowlab.cli "$@"; }}\n'
    return subprocess.run(["bash", "-e", "-c", define + script], cwd=cwd, env=env, capture_output=True, text=True)


def test_readme_cli_block_runs(tmp_path):
    done = run_bash(CLI_BLOCK, tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


def test_readme_params_file_is_read_with_an_overriding_flag(tmp_path):
    (tmp_path / "trade.kv").write_text(PARAMS_FILE)
    from_file = run_bash("escrowlab solve --params trade.kv --gamma 1/2", tmp_path)
    from_flags = run_bash("escrowlab solve --x 1 --y 2 --gamma 1/2 --lambda 1", tmp_path)
    assert (from_file.returncode, from_file.stderr) == (0, "")
    assert from_file.stdout == from_flags.stdout
