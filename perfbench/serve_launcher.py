"""Start ``artwork-serve`` for the benchmark.

    PERFBENCH_SPANS=<dir> python3 perfbench/serve_launcher.py <artwork-serve args>

Installs the traced run's layer wrappers when ``PERFBENCH_SPANS`` names a
directory — before the gateway forks its worker pool, so the workers
inherit them — and then hands over to ``repro.cli.artwork_serve_main``.
"""

from __future__ import annotations

import sys

import layers


def main() -> int:
    layers.install_from_env()
    from repro.cli import artwork_serve_main

    return artwork_serve_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
