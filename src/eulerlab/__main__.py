"""python -m eulerlab: the command line interface of eulerlab.harness."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
