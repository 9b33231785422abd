"""`python -m proxbound ...`: the same command line as the `proxbound`
script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
