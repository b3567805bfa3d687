"""The one eviction policy of every process-wide memo: least recently
used, bounded by a module constant next to the memo."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["lru_lookup"]

V = TypeVar("V")


def lru_lookup(
    memo: "OrderedDict[Hashable, V]", key: Hashable, bound: int, compute: Callable[[], V]
) -> V:
    """``memo[key]``, filled by ``compute()`` on a miss, keeping the
    ``bound`` most recently used entries. Values are shared: callers
    must not mutate them."""
    value = memo.pop(key, None)
    if value is None:
        value = compute()
        if len(memo) >= bound:
            memo.popitem(last=False)
    memo[key] = value
    return value
