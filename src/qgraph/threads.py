"""The QGRAPH_THREADS variable, read without numpy.

The root finder runs in the calling thread: spreading a subdivision level
over threads measured slower than one thread, since its work is small numpy
calls that hold the GIL.  The command line still checks the variable for
every subcommand, before it loads any compute module, so that a value that
is not an integer >= 0 stays a usage error; no value changes the work.
"""

import os


def thread_count():
    """The thread count that QGRAPH_THREADS names: 1 when unset, 0 = per
    CPU.  Raises ValueError on anything else than an integer >= 0."""
    raw = os.environ.get("QGRAPH_THREADS", "").strip()
    if not raw:
        return 1
    if not raw.isdecimal():
        raise ValueError("QGRAPH_THREADS must be an integer >= 0, got %r" % raw)
    n = int(raw)
    if n == 0:
        return os.cpu_count() or 1
    return n
