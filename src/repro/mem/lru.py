"""An O(1) LRU ordering structure.

Used by the explicit cache simulators.  Python's ``OrderedDict`` provides
the same operations, but an explicit implementation keeps the eviction
logic auditable and lets tests assert internal invariants (doubly-linked
list consistency) with hypothesis.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional


class _Node:
    __slots__ = ("key", "prev", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class LRUList:
    """Tracks recency of a set of integer keys.

    The most recently used key is at the head; the least recently used at
    the tail.  All operations are O(1).
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, _Node] = {}
        self._head: Optional[_Node] = None
        self._tail: Optional[_Node] = None

    @classmethod
    def from_mru_to_lru(cls, keys: Iterable[int]) -> "LRUList":
        """A list holding ``keys`` in the given order, most recent first.

        Links the nodes directly (one pass, no per-key touch); a repeated
        key keeps its most recent position, as touching the keys in
        reverse order would.
        """
        lru = cls()
        nodes = lru._nodes
        prev: Optional[_Node] = None
        for key in keys:
            if key in nodes:
                continue
            node = _Node(key)
            nodes[key] = node
            if prev is None:
                lru._head = node
            else:
                prev.next = node
                node.prev = prev
            prev = node
        lru._tail = prev
        return lru

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: int) -> bool:
        return key in self._nodes

    def _unlink(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = None
        node.next = None

    def _push_front(self, node: _Node) -> None:
        node.next = self._head
        node.prev = None
        if self._head is not None:
            self._head.prev = node
        self._head = node
        if self._tail is None:
            self._tail = node

    def touch(self, key: int) -> bool:
        """Mark ``key`` most-recently-used.

        Returns True if the key was already present (a hit), False if it
        was inserted fresh (a miss).
        """
        node = self._nodes.get(key)
        if node is not None:
            if self._head is not node:
                self._unlink(node)
                self._push_front(node)
            return True
        node = _Node(key)
        self._nodes[key] = node
        self._push_front(node)
        return False

    def evict_lru(self) -> int:
        """Remove and return the least recently used key."""
        if self._tail is None:
            raise KeyError("evict_lru() on empty LRUList")
        node = self._tail
        self._unlink(node)
        del self._nodes[node.key]
        return node.key

    def remove(self, key: int) -> None:
        """Remove ``key`` regardless of its position."""
        node = self._nodes.pop(key)
        self._unlink(node)

    def lru_key(self) -> int:
        """The least recently used key, without removing it."""
        if self._tail is None:
            raise KeyError("lru_key() on empty LRUList")
        return self._tail.key

    def mru_key(self) -> int:
        """The most recently used key, without removing it."""
        if self._head is None:
            raise KeyError("mru_key() on empty LRUList")
        return self._head.key

    def keys_mru_to_lru(self) -> Iterator[int]:
        """Iterate keys from most to least recently used (for tests)."""
        node = self._head
        while node is not None:
            yield node.key
            node = node.next

    def check_invariants(self) -> None:
        """Assert structural consistency (used by property-based tests)."""
        seen = []
        node = self._head
        prev = None
        while node is not None:
            assert node.prev is prev, "broken prev link"
            seen.append(node.key)
            prev = node
            node = node.next
        assert prev is self._tail, "tail does not terminate the list"
        assert len(seen) == len(self._nodes), "node map / list length mismatch"
        assert set(seen) == set(self._nodes), "node map / list key mismatch"
