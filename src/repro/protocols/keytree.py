"""The binary key tree underlying TGDH (paper §4.3, Figures 4-7).

Every node carries a secret **key** (known only to the members below it)
and a public **blinded key** ``bkey = g^key`` (known group-wide once
published).  A leaf's key is its member's session random; an internal
node's key is the Diffie-Hellman agreement of its two children:
``key = bkey_sibling ^ key_child``.  The root key is the group key.

The tree structure evolves deterministically at every member — insertion
uses the paper's heuristic ("the rightmost shallowest node which does not
increase the height", footnote 5), and removal promotes the departed
leaf's sibling — so members only ever need to exchange blinded keys.

Secret keys are *local* state: a serialized tree carries blinded keys only
("the keys are never broadcasted", Figure 4's footnote).

**Persistence.**  Trees are structurally shared.  A broadcast tree is
decoded once per serialized object (:meth:`KeyTree.decode`), the fold of
a set of decoded component trees is computed once (:meth:`KeyTree.merge`),
and every receiver's replica starts out as that one set of nodes.  Nodes
carry no
parent pointer; each node is *owned* by at most one tree, and a tree
writes only nodes it owns.  Any write — a graft, a promotion, a secret-key
or blinded-key write — first copies the root-to-target path into the
writing tree (copy-on-write), so it costs O(height) node copies and never
becomes visible to another replica.  Secret keys are only ever written
through :meth:`KeyTree.path`/:meth:`KeyTree.leaf_of`, which hand out owned
nodes, so the shared nodes of a decoded tree never carry one.

Members are located by their left-to-right rank: each node caches its
leaf count, so a rank descends to its leaf in O(height), and the tree
keeps its member list (spliced, not re-walked, on structural changes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class TreeNode:
    """One node of a key tree.

    Nodes may be shared between trees, so a node obtained from a read
    accessor (``root``, :meth:`KeyTree.find`, :meth:`KeyTree.leaves`,
    :meth:`KeyTree.insertion_point`) is read-only; write through
    :meth:`KeyTree.path`, :meth:`KeyTree.leaf_of` or
    :meth:`KeyTree.set_bkey` (see the module docstring).
    """

    __slots__ = ("member", "left", "right", "key", "bkey", "_height", "size", "_owner")

    def __init__(
        self,
        member: Optional[str] = None,
        left: Optional["TreeNode"] = None,
        right: Optional["TreeNode"] = None,
        owner: Optional[object] = None,
    ):
        self.member = member
        self.left = left
        self.right = right
        # Cached subtree height and leaf count, refreshed along the copied
        # path by every structural change.
        if left is None and right is None:
            self._height = 0
            self.size = 1
        else:
            self._height = 1 + max(left._height, right._height)
            self.size = left.size + right.size
        #: secret key — local knowledge of the members below this node
        self.key: Optional[int] = None
        #: published blinded key — group knowledge; None means invalidated
        self.bkey: Optional[int] = None
        #: the token of the one tree allowed to write this node in place
        self._owner = owner

    @property
    def is_leaf(self) -> bool:
        return self.member is not None

    def height(self) -> int:
        return self._height


def _copy(node: TreeNode, owner: object) -> TreeNode:
    twin = TreeNode.__new__(TreeNode)
    twin.member = node.member
    twin.left = node.left
    twin.right = node.right
    twin.key = node.key
    twin.bkey = node.bkey
    twin._height = node._height
    twin.size = node.size
    twin._owner = owner
    return twin


class _Memo:
    """Trees shared between replicas, by the identity of what they were
    built from; the oldest entries are evicted first once the entries
    hold more than ``budget`` leaves in total.

    A memo of pure functions — serialized trees are immutable tuples and
    shared nodes are never written in place — so a hit and a rebuild
    are interchangeable.  Each entry keeps its source objects alive, so
    their ids cannot be reused while it lives.  The budget is sized in
    leaves, not entries, because an n-way merge broadcasts n singleton
    trees at once, all of which must still be shared when the last
    member folds them.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.leaves = 0
        self.entries: Dict[object, tuple] = {}

    def get(self, key) -> Optional[tuple]:
        return self.entries.get(key)

    def add(self, key, entry: tuple, leaves: int) -> tuple:
        entries = self.entries
        while entries and self.leaves + leaves > self.budget:
            self.leaves -= entries.pop(next(iter(entries)))[-1]
        entries[key] = entry + (leaves,)
        self.leaves += leaves
        return entries[key]


#: Decoded broadcast trees, by the id of their serialized form.
_DECODED = _Memo(budget=1 << 14)
#: Merges of decoded trees (:meth:`KeyTree.merge`), by the ids of the
#: merged roots in fold order.
_MERGED = _Memo(budget=1 << 14)


class KeyTree:
    """A member's replica of the group's key tree."""

    def __init__(self, root: TreeNode, members: List[str]):
        self.root = root
        #: left-to-right member names under ``root``.  Never mutated in
        #: place (structural changes rebind it), so replicas share one
        #: list until they differ.
        self._members = members
        self._owner = object()

    # -- construction -----------------------------------------------------

    @classmethod
    def singleton(cls, member: str, key: Optional[int] = None) -> "KeyTree":
        tree = cls(TreeNode(member=member), [member])
        tree.root._owner = tree._owner
        tree.root.key = key
        return tree

    # -- queries ----------------------------------------------------------

    def leaves(self) -> List[TreeNode]:
        """All leaves, left to right (a whole-tree walk)."""
        found: List[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.member is not None:
                found.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return found

    def members(self) -> List[str]:
        """Member names, left to right (do not mutate the returned list)."""
        return self._members

    def leaf_of(self, member: str) -> TreeNode:
        """The member's leaf, private to this tree (safe to write)."""
        return self.path(member)[0]

    def rightmost_member(self, node: Optional[TreeNode] = None) -> str:
        """The rightmost leaf's member under ``node`` (default: the root)."""
        node = node or self.root
        while node.member is None:
            node = node.right
        return node.member

    def path(self, member: str) -> List[TreeNode]:
        """Nodes from the member's leaf up to (and including) the root.

        The nodes are private to this tree — shared ones are copied on the
        way — so callers may write their keys and blinded keys.
        """
        trail = self._trail(self._rank(member))
        self._own(trail, len(trail))
        trail.reverse()
        return trail

    def height(self) -> int:
        return self.root._height

    def address(self, member: str) -> str:
        """The node id of the member's leaf (read-only)."""
        return _address(self._trail(self._rank(member)))

    def node_id(self, node: TreeNode) -> str:
        """Root-relative address: '' for the root, then '0'/'1' per step."""
        # A node of this tree lies on the path to its own rightmost leaf.
        leaf = node
        while leaf.member is None:
            leaf = leaf.right
        trail = self._trail(self._rank(leaf.member))
        try:
            depth = trail.index(node)
        except ValueError:
            raise ValueError("node is not part of this tree") from None
        return _address(trail[: depth + 1])

    def find(self, node_id: str) -> Optional[TreeNode]:
        """The node at ``node_id``, or None when the path does not exist
        in this tree (divergent shapes after an interrupted cascade).
        Read-only: write through :meth:`set_bkey`."""
        node = self.root
        for bit in node_id:
            if node is None:
                return None
            node = node.left if bit == "0" else node.right
        return node

    # -- writes -----------------------------------------------------------

    def set_bkey(self, node_id: str, bkey: Optional[int]) -> bool:
        """Write the blinded key at ``node_id``; False (and no write) when
        the address does not exist in this tree."""
        node = self.root
        trail = [node]
        for bit in node_id:
            if node.member is not None:
                return False
            node = node.left if bit == "0" else node.right
            trail.append(node)
        self._own(trail, len(trail))
        trail[-1].bkey = bkey
        return True

    # -- structural mutation ----------------------------------------------

    def insertion_point(self, joining_height: int) -> TreeNode:
        """The paper's heuristic: the rightmost shallowest node where
        hanging a subtree of ``joining_height`` does not increase the
        tree's height; the root if no such node exists."""
        root = self.root
        target_height = root._height
        # A perfect tree has no suitable node at all (every node sits at
        # depth + height == target, so hanging anything under it adds a
        # level), and a subtree at least as tall as the whole tree can
        # only hang off the root: both common cases are answered in O(1).
        if root.size == 1 << target_height or joining_height >= target_height:
            return root
        # Right-child-first level scan => within a depth, rightmost comes
        # first.  Children are only explored below *unsuitable* nodes:
        # the first suitable node seen is the answer, so nothing deeper
        # matters.  Plain per-level lists — no (node, depth) tuples, no
        # deque — because an n-way merge calls this once per component
        # tree per receiver, and the allocation churn is measurable.
        level = [root]
        limit = target_height - 1
        while level:
            nxt: List[TreeNode] = []
            for node in level:
                height = node._height
                if height < joining_height:
                    height = joining_height
                if height <= limit:
                    return node
                if node.member is None:
                    nxt.append(node.right)
                    nxt.append(node.left)
            level = nxt
            limit -= 1
        return root

    def insert_tree(self, other: "KeyTree") -> TreeNode:
        """Graft ``other`` as the right sibling of the insertion point.

        Returns the new intermediate node.  All keys and blinded keys from
        the intermediate node up to the root are invalidated.  ``other``'s
        nodes become shared with this tree, so ``other`` can no longer
        write them in place.
        """
        anchor = self.insertion_point(other.height())
        # The anchor lies on the path to its own rightmost leaf, and the
        # grafted members follow that leaf.
        leaf = anchor
        while leaf.member is None:
            leaf = leaf.right
        end = self._rank(leaf.member) + 1
        trail = self._trail(end - 1)
        del trail[trail.index(anchor):]
        self._own(trail, len(trail))
        joint = TreeNode(left=anchor, right=other.root, owner=self._owner)
        if trail:
            parent = trail[-1]
            if parent.left is anchor:
                parent.left = joint
            else:
                parent.right = joint
            _refresh(trail)
        else:
            self.root = joint
        members = self._members
        self._members = members[:end] + other._members + members[end:]
        other._owner = object()
        return joint

    def remove_members(self, names: Iterable[str]) -> List[TreeNode]:
        """Delete the given leaves, promoting each sibling (Figure 7).

        Returns the promoted subtrees that are still part of the tree
        afterwards (a later removal in the same call can bypass an earlier
        promotion), in removal order: the points whose ancestors were
        invalidated.  Removal order is left-to-right tree order, which
        every member computes identically.
        """
        doomed = set(names)
        if not doomed:
            return []
        members = self._members
        survivors = [m for m in members if m not in doomed]
        if not survivors:
            raise ValueError("cannot remove every member from the tree")
        ranks = [rank for rank, m in enumerate(members) if m in doomed]
        owner = self._owner
        promoted: List[TreeNode] = []
        # Earlier removals sit to the left, so each shifts later ranks by one.
        for removed, rank in enumerate(ranks):
            trail = self._trail(rank - removed)
            leaf = trail.pop()
            parent = trail.pop()
            self._own(trail, len(trail))
            sibling = parent.right if parent.left is leaf else parent.left
            # Promoted subtrees are owned, so later removals below one
            # write it in place and it keeps its identity.
            if sibling._owner is not owner:
                sibling = _copy(sibling, owner)
            if trail:
                grand = trail[-1]
                if grand.left is parent:
                    grand.left = sibling
                else:
                    grand.right = sibling
                # Only nodes *above* the promotion point become stale; the
                # promoted subtree's own keys are still valid (freshness
                # comes from the sponsor's session-random refresh).
                _refresh(trail)
            else:
                self.root = sibling
            promoted = [n for n in promoted if n is not parent and n is not leaf]
            promoted.append(sibling)
        self._members = survivors
        return promoted

    def invalidate_path(self, member: str) -> None:
        """Invalidate everything above a leaf (after a session-key refresh)."""
        trail = self._trail(self._rank(member))
        trail.pop()
        self._own(trail, len(trail))
        for node in trail:
            node.key = None
            node.bkey = None

    # -- internals ----------------------------------------------------------

    def _rank(self, member: str) -> int:
        try:
            return self._members.index(member)
        except ValueError:
            raise KeyError(f"{member} is not in the tree") from None

    def _trail(self, rank: int) -> List[TreeNode]:
        """Nodes from the root down to the leaf of rank ``rank`` (read-only)."""
        node = self.root
        trail = [node]
        while node.member is None:
            left = node.left
            if rank < left.size:
                node = left
            else:
                rank -= left.size
                node = node.right
            trail.append(node)
        return trail

    def _own(self, trail: List[TreeNode], count: int) -> None:
        """Copy-on-write: make ``trail[:count]`` (a root-down path) private
        to this tree, relinking each copy under its (already private)
        parent and replacing the copied entries in ``trail``."""
        owner = self._owner
        parent = None
        for index in range(count):
            node = trail[index]
            if node._owner is not owner:
                twin = _copy(node, owner)
                if parent is None:
                    self.root = twin
                elif parent.left is node:
                    parent.left = twin
                else:
                    parent.right = twin
                trail[index] = node = twin
            parent = node

    # -- serialization (blinded keys only) --------------------------------

    def serialize(self):
        """Nested-tuple form carrying structure and blinded keys only."""
        return _serialize(self.root)

    @classmethod
    def deserialize(cls, data) -> "KeyTree":
        """A fresh tree decoded from :meth:`serialize` output."""
        members: List[str] = []
        built: List[TreeNode] = []
        stack = [(data, False)]
        while stack:
            item, children_built = stack.pop()
            if item[0] == "L":
                node = TreeNode(member=item[1])
                node.bkey = item[2]
                members.append(item[1])
            elif children_built:
                right = built.pop()
                node = TreeNode(left=built.pop(), right=right)
                node.bkey = item[3]
            else:
                stack.append((item, True))
                stack.append((item[2], False))
                stack.append((item[1], False))
                continue
            built.append(node)
        return cls(built[0], members)

    @classmethod
    def decode(cls, data) -> "KeyTree":
        """A replica of serialized ``data`` sharing one decoded set of
        nodes with every other replica of the same object.

        The simulator hands the same in-process message body to every
        receiver, so a broadcast tree is decoded once per message, not
        once per receiver.  Decoded nodes carry no secret keys, and the
        replica copies what it writes (see the module docstring).
        """
        entry = _DECODED.get(id(data))
        if entry is None:
            tree = cls.deserialize(data)
            entry = _DECODED.add(
                id(data), (data, tree.root, tree._members), len(tree._members)
            )
        return cls(entry[1], entry[2])

    @classmethod
    def merge(cls, trees: List["KeyTree"]) -> Tuple["KeyTree", List[TreeNode]]:
        """Fold ``trees`` in order — the first grafted with each later one
        by :meth:`insert_tree` — into a new replica; returns it with the
        intermediate node of every graft (the merge points).

        The inputs are consumed.  When every input is an unmodified
        replica of decoded nodes (:meth:`decode`), the fold depends on
        those shared nodes alone, so it is computed once and shared like a
        decoded tree: every member folding the same component broadcasts
        gets a replica of one frozen result.
        """
        roots = tuple(tree.root for tree in trees)
        shared = all(root._owner is None for root in roots)
        entry = _MERGED.get(tuple(map(id, roots))) if shared else None
        if entry is None:
            base = cls(roots[0], trees[0]._members)
            points = [base.insert_tree(other) for other in trees[1:]]
            if not shared:
                return base, points
            _freeze(base.root, base._owner)
            entry = _MERGED.add(
                tuple(map(id, roots)),
                (roots, base.root, base._members, points),
                len(base._members),
            )
        return cls(entry[1], entry[2]), entry[3]

    def bkey_count(self) -> int:
        """How many blinded keys a serialization carries (for sizing)."""
        return sum(1 for node in self._all_nodes() if node.bkey is not None)

    def _all_nodes(self) -> List[TreeNode]:
        nodes = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        return nodes


def _freeze(root: TreeNode, owner: object) -> None:
    """Hand every node ``owner`` wrote under ``root`` over to sharing (no
    tree may write it in place any more).  Owned nodes only ever hang
    under owned parents, so the walk stops at the first shared node."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node._owner is owner:
            node._owner = None
            if node.member is None:
                stack.append(node.left)
                stack.append(node.right)


def _address(trail: List[TreeNode]) -> str:
    """The node id of the last node of a root-down path."""
    return "".join(
        "0" if child is parent.left else "1"
        for parent, child in zip(trail, trail[1:])
    )


def _refresh(trail: List[TreeNode]) -> None:
    """After a structural change below the last node of ``trail`` (a
    private root-down path): refresh cached heights and leaf counts and
    invalidate keys, bottom-up."""
    for node in reversed(trail):
        left = node.left
        right = node.right
        node._height = 1 + (
            left._height if left._height > right._height else right._height
        )
        node.size = left.size + right.size
        node.key = None
        node.bkey = None


def _serialize(node: TreeNode):
    if node.is_leaf:
        return ("L", node.member, node.bkey)
    return ("N", _serialize(node.left), _serialize(node.right), node.bkey)
