"""The scripts under scripts/ run from a fresh checkout: no installed fcco and
no PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bare_env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def test_gen_configs_imports_without_pythonpath(tmp_path):
    # loading the script (not as __main__) resolves its fcco imports and
    # writes nothing
    code = f"import runpy; runpy.run_path({str(ROOT / 'scripts' / 'gen_configs.py')!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_bare_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
