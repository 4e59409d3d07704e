"""The README's Library-use example runs against the current API."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_readme_python_block_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks, "README.md has no python block"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
