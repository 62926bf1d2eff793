"""Time one fracsolve set-up in a fresh interpreter: imports, config
validation and grid build.

    python3 perfbench/setup_probe.py CONFIG.json

Run from the root of a fracsolve checkout; prints the seconds taken.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from fracsolve import config

    config.load_config(sys.argv[1]).build_grid()
    print(perf_counter() - T0)


if __name__ == "__main__":
    main()
