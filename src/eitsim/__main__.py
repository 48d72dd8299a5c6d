"""Process entry point of `python -m eitsim` and the `eitsim` script.

`run` imports the CLI with the cyclic garbage collector off, then freezes
everything the import made (numpy and every eitsim module, ~22,000 tracked
objects) into the permanent generation before the command runs with the
collector back on.  The import then triggers no collections, and the
collections at interpreter exit scan only what the command allocated
(~400 objects after `window --backend full`).  Streams, atexit handlers,
output files and exit statuses are untouched.  In-process callers use
`eitsim.cli.main`, which leaves `gc` alone.
"""

import gc
import sys


def run(argv=None) -> int:
    """Run one CLI command in this process and return its exit status."""
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        gc.enable()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
