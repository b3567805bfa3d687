"""The one eviction policy of every process-wide memo: least recently
used, bounded by a module constant next to the memo."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["lru_lookup"]

V = TypeVar("V")

#: marks a miss, so a memoized ``None`` is a hit like any other value
_MISSING = object()


def lru_lookup(
    memo: "OrderedDict[Hashable, V]", key: Hashable, bound: int, compute: Callable[[], V]
) -> V:
    """``memo[key]``, filled by ``compute()`` on a miss, keeping the
    ``bound`` most recently used entries. Values are shared: callers
    must not mutate them."""
    value = memo.pop(key, _MISSING)
    if value is _MISSING:
        value = compute()
        if len(memo) >= bound:
            memo.popitem(last=False)
    memo[key] = value
    return value
