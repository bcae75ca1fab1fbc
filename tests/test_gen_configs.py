"""scripts/gen_configs.py derives the double-loop step sizes from the
stability helpers; the shipped configs must be exactly what it writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gen_configs_reproduces_shipped_configs(tmp_path):
    spec = importlib.util.spec_from_file_location("gen_configs", ROOT / "scripts" / "gen_configs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = tmp_path
    module.main()
    shipped = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (ROOT / "configs" / name).read_bytes(), name
