"""A bounded, thread-safe memo for the pure set-up steps of the engines.

A model's roots, its autocovariance head and its state-space form, a seed's
scrambled Sobol engines and the Sobol direction bits of a dimension depend
only on their inputs, and a program that evaluates one model or one seed many
times needs each once.  A key is the exact bits of the inputs, so ``0.0``
and ``-0.0`` are different keys; a stored array is read-only, so no caller
can change what a later call reads.  Each memo keeps the entries used last,
up to a fixed number of bytes.
"""

import functools
import threading
from collections import OrderedDict

# Bytes charged to each entry besides its arrays and the bytes in its key:
# the dict slot, the key and value tuples and the array headers.
_ENTRY_BYTES = 1024


class Memo:
    """Results of one pure function by key, the ``bytes`` items of a key and
    the arrays of a result counted against ``max_bytes``; the least recently
    used entries go first, and a result larger than the bound is not kept."""

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, key, compute):
        """The result stored for ``key``, else ``compute()`` (an array or a
        tuple of arrays), made read-only and stored.  A computation that
        raises stores nothing, so every call with that key raises afresh."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value = compute()
        arrays = value if isinstance(value, tuple) else (value,)
        for a in arrays:
            a.setflags(write=False)
        size = (_ENTRY_BYTES + sum(len(k) for k in key if isinstance(k, bytes))
                + sum(a.nbytes for a in arrays))
        with self._lock:
            if size <= self.max_bytes and key not in self._entries:
                self._entries[key] = value, size
                self.nbytes += size
                while self.nbytes > self.max_bytes:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
        return value

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


def memoised(max_bytes, key):
    """Decorate a pure function with a :class:`Memo` of ``max_bytes``, found
    under its ``memo`` attribute, on the tuple ``key(*args)``."""
    def decorate(fn):
        memo = Memo(max_bytes)

        @functools.wraps(fn)
        def wrapper(*args):
            return memo.get(key(*args), lambda: fn(*args))

        wrapper.memo = memo
        return wrapper
    return decorate
