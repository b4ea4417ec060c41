"""The process entry point, for ``python -m choiwit`` and the ``choiwit`` console script.

It imports no numpy when imported: main sets the OpenBLAS thread default first.
"""

import os
import sys


def main(argv=None) -> int:
    """cli.main with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is set: a 9x9 problem uses no more."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads below
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
