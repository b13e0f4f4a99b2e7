"""Small union-find over hashable items, used for strand gluing and loop counts."""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: dict = {x: x for x in items}

    def find(self, x: Hashable):
        parent = self._parent
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the classes of x and y; True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self._parent[ry] = rx
        return True
