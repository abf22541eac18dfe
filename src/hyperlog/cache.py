"""Per-process caches of structure that depends only on a call's immutable
inputs (letters, truncation, series order, a multiplier), bounded in bytes."""

from __future__ import annotations

import functools
import sys
from collections import OrderedDict

import numpy as np

CACHES = []  # every bounded cache, in the order they were made


def _seal(value) -> int:
    """Make the arrays in ``value``, nested in tuples, read-only, since every
    call that gets it shares them, and return the bytes it holds."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(_seal, value))
    return sys.getsizeof(value)


def bounded_cache(budget: int):
    """Keep a function's results, keyed on its immutable arguments, while
    together they hold at most ``budget`` bytes (``nbytes``), dropping the
    least recently used first; a result larger than the budget is built on
    every call.  Results are arrays or tuples, and their arrays are
    read-only.  ``entries`` maps the arguments to (result, bytes);
    ``misses`` counts the calls that built their result."""

    def decorate(fn):
        entries = OrderedDict()

        @functools.wraps(fn)
        def cached(*args):
            hit = entries.get(args)
            if hit is not None:
                entries.move_to_end(args)
                return hit[0]
            value = fn(*args)
            cached.misses += 1
            size = _seal(value)
            if size <= budget:
                entries[args] = value, size
                cached.nbytes += size
                while cached.nbytes > budget:
                    cached.nbytes -= entries.popitem(last=False)[1][1]
            return value

        cached.budget, cached.nbytes, cached.misses, cached.entries = budget, 0, 0, entries
        CACHES.append(cached)
        return cached

    return decorate
