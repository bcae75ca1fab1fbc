#!/usr/bin/env python3
"""Run the shipped desk-scale benchmark sweep: every config in configs/.

Equivalent to `fcco bench configs/`; kept as a script so the sweep is one
command after a fresh checkout:

    python3 scripts/desk_bench.py [config_dir]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fcco.cli import cmd_bench  # noqa: E402

if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else ROOT / "configs"
    sys.exit(cmd_bench(target))
