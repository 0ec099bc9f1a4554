"""``python -m mergespace``: the command-line interface."""

import sys

from mergespace.cli import main

if __name__ == "__main__":
    sys.exit(main())
