"""The Python examples of README.md run, and print what the text says."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_examples() -> list[str]:
    """The standard output of each ```python block of README.md, run on its
    own with src on the path."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    outputs = []
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL):
        done = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    return outputs


def test_readme_examples_print_what_the_text_states():
    errors, extremal = run_examples()
    # sqrt(2) at n = 1 and 2, 1.0 at n = 3 and 4, 0 at n = 5
    rows = [line.split() for line in errors.splitlines()]
    assert [(int(n), float(err)) for n, err in rows] == [
        (1, math.sqrt(2)), (2, math.sqrt(2)), (3, 1.0), (4, 1.0), (5, 0.0)
    ]
    blocks, *lines = extremal.splitlines()
    assert blocks == "[(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]"
    (f1, norms1), (f2, norms2), (f3, norms3) = zip(lines[::2], lines[1::2])
    # f1 at n = 6: 320 frequencies on a 64 x 64 grid, sign-symmetric, by the
    # product route, one block norm per block; f2 is the one block (1, 5),
    # and f3 is f1
    assert f1.startswith("320 (64, 64) True product ")
    assert list(ast.literal_eval(norms1)) == ast.literal_eval(blocks)
    assert " True product " in f2 and list(ast.literal_eval(norms2)) == [(1, 5)]
    assert (f3, norms3) == (f1, norms1)
