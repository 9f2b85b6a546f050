"""Bounded memos shared between threads.

A memo is a plain dict with a bound, both owned by the caller.  Readers look
a key up with `memo.get` and take no lock.  Writers store through `remember`,
which holds one lock for every memo of the package while it checks for the
key, evicts the oldest entry and inserts, so that a memo never passes its
bound and no writer iterates a dict while another changes it.  The first
value stored under a key stays, so every caller shares one object.
"""

from __future__ import annotations

import threading

_lock = threading.Lock()


def remember(memo, bound, key, value):
    """Store value under key unless a value is already there, evicting the
    oldest entry when the memo is full, and return the stored value."""
    with _lock:
        if len(memo) >= bound and key not in memo:
            memo.pop(next(iter(memo)), None)
        return memo.setdefault(key, value)
