"""Process entry point of `python -m eitsim` and the `eitsim` script.

`run` imports the CLI, and later the numeric layer when the command
computes (cli.load_numeric), each with the cyclic garbage collector off,
then freezes everything the import made (for the numeric layer numpy and
the modules that compute, ~22,000 tracked objects) into the permanent
generation; the command then runs with the collector back on.  The imports
then trigger no collections, and the collections at interpreter exit scan
only what the command allocated (~400 objects after `window --backend
full`).  Streams, atexit handlers, output files and exit statuses are
untouched.  In-process callers use `eitsim.cli.main`, which leaves `gc`
alone.
"""

import gc
import sys
from importlib import import_module


def _frozen(load):
    """Call load with the collector off, freeze what it made, and return
    its result."""
    gc.disable()
    try:
        result = load()
        gc.freeze()
    finally:
        gc.enable()
    return result


def run(argv=None) -> int:
    """Run one CLI command in this process and return its exit status."""
    cli = _frozen(lambda: import_module(".cli", __package__))
    return cli.main(argv, load_numeric=lambda: _frozen(cli.load_numeric))


if __name__ == "__main__":
    sys.exit(run())
