import os
import re
from pathlib import Path

from zakgkp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# the CLI examples: the first fenced block under the heading (CI runs the same block)
CLI_BLOCK = re.compile(r"^## Command-line interface\n\n```\n(.*?)^```$", re.S | re.M)


def test_readme_python_blocks_run():
    # a deleted or renamed public name fails the library tour here, before a reader runs it
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # each line exits 0 and writes its output and then its manifest
    lines = CLI_BLOCK.search(README.read_text(encoding="utf-8")).group(1).splitlines()
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, command, *args = line.split("#", 1)[0].split()
        assert prog == "zakgkp" and main([command, *args]) == 0, line
        out = args[args.index("--out") + 1]
        manifest = os.path.join(out, "manifest") if command == "shift-array" else out + ".manifest"
        assert os.path.exists(out), line
        with open(manifest, encoding="utf-8") as fh:
            assert fh.readline() == f"command={command}\n", line
