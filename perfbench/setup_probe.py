"""Set-up probe: a fresh process imports fcco, loads a workload config and
builds its problem, then prints ``built``.  The benchmark times this from
process start to that line.

    python3 perfbench/setup_probe.py <src dir> <config.json>
"""

import sys


def main() -> int:
    src, config = sys.argv[1:3]
    sys.path.insert(0, src)
    from fcco.cli import _load_config, build_problem

    build_problem(_load_config(config).problem)
    print("built", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
