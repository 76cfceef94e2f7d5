"""Entry point for `python -m spacheck`; see `spacheck.cli` for the commands."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
