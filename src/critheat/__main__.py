"""`python -m critheat <experiment> ...`, the same entry point as the `critheat` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
