"""Worker threads of the root finder, read from QGRAPH_THREADS.

Kept apart from rootfind, and free of numpy, so that the command line can
check the variable for every subcommand before it loads any compute module.
"""

import os


def thread_count():
    """Root-finding threads from QGRAPH_THREADS: 1 when unset, 0 = per CPU."""
    raw = os.environ.get("QGRAPH_THREADS", "").strip()
    if not raw:
        return 1
    if not raw.isdecimal():
        raise ValueError("QGRAPH_THREADS must be an integer >= 0, got %r" % raw)
    n = int(raw)
    if n == 0:
        return os.cpu_count() or 1
    return n
