"""Key tree structure tests (the TGDH substrate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.keytree import KeyTree


def _grow(names):
    tree = KeyTree.singleton(names[0])
    for name in names[1:]:
        tree.insert_tree(KeyTree.singleton(name))
    return tree


class TestStructure:
    def test_singleton(self):
        tree = KeyTree.singleton("a", key=7)
        assert tree.members() == ["a"]
        assert tree.height() == 0
        assert tree.root.key == 7

    def test_insert_keeps_all_members(self):
        tree = _grow(["a", "b", "c", "d", "e"])
        assert sorted(tree.members()) == ["a", "b", "c", "d", "e"]

    def test_sequential_inserts_stay_balanced(self):
        """The rightmost-shallowest heuristic keeps height logarithmic for
        sequential joins (the paper: height < 2 log2 n)."""
        import math

        for n in (4, 8, 16, 31):
            tree = _grow([f"m{i}" for i in range(n)])
            assert tree.height() <= 2 * math.ceil(math.log2(n))

    def test_insert_at_root_when_tree_full(self):
        tree = _grow(["a", "b"])  # perfectly balanced, height 1
        h_before = tree.height()
        tree.insert_tree(KeyTree.singleton("c"))
        assert tree.height() == h_before + 1  # had to grow

    def test_insert_fills_gap_without_height_increase(self):
        tree = _grow(["a", "b", "c"])  # height 2 with a free slot
        tree.insert_tree(KeyTree.singleton("d"))
        assert tree.height() == 2

    def test_paths_consistent(self):
        tree = _grow(["a", "b", "c", "d", "e"])
        for leaf in tree.leaves():
            path = tree.path(leaf.member)
            assert path[0].member == leaf.member
            for child, parent in zip(path, path[1:]):
                assert child in (parent.left, parent.right)
            assert path[-1] is tree.root

    def test_remove_promotes_sibling(self):
        tree = _grow(["a", "b"])
        tree.remove_members(["a"])
        assert tree.members() == ["b"]
        assert tree.root.is_leaf

    def test_remove_multiple(self):
        tree = _grow(["a", "b", "c", "d", "e", "f"])
        tree.remove_members(["b", "e"])
        assert sorted(tree.members()) == ["a", "c", "d", "f"]

    def test_remove_adjacent_siblings(self):
        tree = _grow(["a", "b", "c", "d"])
        tree.remove_members(["a", "b"])
        assert sorted(tree.members()) == ["c", "d"]

    def test_cannot_remove_everyone(self):
        tree = _grow(["a", "b"])
        with pytest.raises(ValueError):
            tree.remove_members(["a", "b"])

    def test_internal_nodes_have_two_children(self):
        tree = _grow([f"m{i}" for i in range(9)])
        tree.remove_members(["m2", "m5", "m7"])
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.extend([node.left, node.right])


class TestInvalidation:
    def test_insert_invalidates_path_to_root(self):
        tree = _grow(["a", "b", "c"])
        for node in tree._all_nodes():
            if not node.is_leaf:
                node.key, node.bkey = 1, 2
        joint = tree.insert_tree(KeyTree.singleton("d"))
        path = tree.path("d")
        assert path[1] is joint
        for node in path[1:]:
            assert node.key is None and node.bkey is None

    def test_remove_invalidates_above_promotion_only(self):
        tree = _grow(["a", "b", "c", "d"])
        for node in tree._all_nodes():
            if not node.is_leaf:
                node.key, node.bkey = 1, 2
        leaf_d, parent = tree.path("d")[:2]
        sibling = parent.right if parent.left is leaf_d else parent.left
        (promoted,) = tree.remove_members(["d"])
        assert promoted.member == sibling.member
        # The promoted subtree keeps its keys; ancestors are cleared.
        if not promoted.is_leaf:
            assert promoted.key == 1
        path = tree.path(tree.rightmost_member(promoted))
        above = path[path.index(promoted) + 1 :]
        for node in above:
            assert node.key is None


class TestSerialization:
    def test_round_trip_preserves_structure_and_bkeys(self):
        tree = _grow(["a", "b", "c", "d", "e"])
        for i, node in enumerate(tree._all_nodes()):
            node.bkey = 100 + i
        clone = KeyTree.deserialize(tree.serialize())
        assert clone.members() == tree.members()
        assert clone.height() == tree.height()
        assert [n.bkey for n in clone._all_nodes()] == [
            n.bkey for n in tree._all_nodes()
        ]

    def test_serialization_never_carries_secret_keys(self):
        tree = _grow(["a", "b", "c"])
        for node in tree._all_nodes():
            node.key = 42
        flat = repr(tree.serialize())
        assert "42" not in flat

    def test_node_ids_round_trip(self):
        tree = _grow(["a", "b", "c", "d", "e", "f", "g"])
        for node in tree._all_nodes():
            assert tree.find(tree.node_id(node)) is node


class TestSponsorSelection:
    def test_rightmost_member(self):
        tree = _grow(["a", "b", "c", "d"])
        assert tree.rightmost_member() == tree.members()[-1]

    def test_rightmost_of_subtree(self):
        tree = _grow(["a", "b", "c", "d"])
        left_subtree = tree.root.left
        expected = left_subtree
        while not expected.is_leaf:
            expected = expected.right
        assert tree.rightmost_member(left_subtree) == expected.member


@given(st.lists(st.integers(0, 30), min_size=1, max_size=25, unique=True))
@settings(max_examples=60, deadline=None)
def test_random_grow_shrink_preserves_invariants(indices):
    """Property: any interleaving of inserts and removals keeps the tree
    binary (internal nodes have exactly two children) and loses no member."""
    names = [f"m{i}" for i in indices]
    tree = _grow(names)
    if len(names) > 1:
        victims = names[:: 2][: len(names) - 1]
        tree.remove_members(victims)
        expected = [n for n in names if n not in victims]
        assert sorted(tree.members()) == sorted(expected)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            assert node.left and node.right
            stack.extend([node.left, node.right])
        else:
            assert node.member is not None
    for name in tree.members():
        path = tree.path(name)
        assert path[-1] is tree.root
        for child, parent in zip(path, path[1:]):
            assert child in (parent.left, parent.right)


class TestSharing:
    """Replicas of one decoded broadcast share nodes but never each
    other's writes."""

    @staticmethod
    def _broadcast():
        source = _grow([f"m{i}" for i in range(8)])
        for i, node in enumerate(source._all_nodes()):
            source.set_bkey(source.node_id(node), 1000 + i)
        return source.serialize()

    def test_decode_once_per_serialized_object(self):
        data = self._broadcast()
        first, second = KeyTree.decode(data), KeyTree.decode(data)
        assert first is not second
        assert first.root is second.root
        assert first.members() == second.members()

    def test_merge_once_per_set_of_broadcasts(self):
        data = self._broadcast()
        joiner = KeyTree.singleton("x").serialize()
        first, first_points = KeyTree.merge(
            [KeyTree.decode(data), KeyTree.decode(joiner)]
        )
        second, second_points = KeyTree.merge(
            [KeyTree.decode(data), KeyTree.decode(joiner)]
        )
        assert first.root is second.root and first_points == second_points
        grafted = KeyTree.decode(data)
        joint = grafted.insert_tree(KeyTree.decode(joiner))
        assert second.serialize() == grafted.serialize()
        assert second.node_id(second_points[0]) == grafted.node_id(joint)
        for node in first.path("x"):
            node.key = 3
        assert all(node.key is None for node in second._all_nodes())

    def test_writes_stay_private_to_the_writer(self):
        data = self._broadcast()
        joiner = KeyTree.singleton("x").serialize()
        writer = KeyTree.decode(data)
        reader = KeyTree.decode(data)
        writer.insert_tree(KeyTree.decode(joiner))
        reader.insert_tree(KeyTree.decode(joiner))
        untouched = reader.serialize()
        # Secret-key writes along a path, a blinded-key write off it,
        # an invalidation and a removal, all by the writer.
        for depth, node in enumerate(writer.path("m1")):
            node.key = 7 + depth
        assert writer.set_bkey(writer.node_id(writer.path("m6")[1]), 99)
        writer.invalidate_path("m4")
        writer.remove_members(["m2"])
        assert reader.serialize() == untouched
        assert all(node.key is None for node in reader._all_nodes())
        again = KeyTree.decode(data)
        assert again.serialize() == data
        assert all(node.key is None for node in again._all_nodes())
        assert writer.members() == [m for m in reader.members() if m != "m2"]

    def test_shared_nodes_carry_no_secret_keys(self):
        data = self._broadcast()
        member = KeyTree.decode(data)
        member.leaf_of("m3").key = 5
        for node in member.path("m3"):
            node.key = 6
        on_path = set(map(id, member.path("m3")))
        shared = {id(node) for node in KeyTree.decode(data)._all_nodes()}
        for node in member._all_nodes():
            if node.key is not None:
                assert id(node) in on_path and id(node) not in shared

    def test_unknown_address_is_not_written(self):
        tree = KeyTree.decode(self._broadcast())
        before = tree.serialize()
        leaf_id = tree.node_id(tree.path("m0")[0])
        assert not tree.set_bkey(leaf_id + "0", 1)
        assert tree.serialize() == before


# -- reference model ---------------------------------------------------------


class _RefNode:
    """A plain mutable node with a parent pointer."""

    def __init__(self, member=None, left=None, right=None):
        self.member, self.left, self.right = member, left, right
        self.parent = None
        self.bkey = None
        for child in (left, right):
            if child is not None:
                child.parent = self

    def height(self):
        if self.member is not None:
            return 0
        return 1 + max(self.left.height(), self.right.height())


class _RefTree:
    """The key tree's structural rules, written the obvious way: the
    insertion point is the rightmost shallowest node whose subtree can
    take the joining tree without the whole tree growing; removal promotes
    the sibling, in left-to-right order."""

    def __init__(self, members):
        self.root = _RefNode(member=members[0])
        for name in members[1:]:
            self.insert(_RefNode(member=name))

    def nodes(self):
        """(address, node) pairs in pre-order."""
        out, stack = [], [("", self.root)]
        while stack:
            address, node = stack.pop()
            out.append((address, node))
            if node.member is None:
                stack.append((address + "1", node.right))
                stack.append((address + "0", node.left))
        return out

    def members(self):
        return [node.member for _, node in self.nodes() if node.member is not None]

    def insertion_address(self, joining_height):
        total = self.root.height()
        fits = [
            address
            for address, node in self.nodes()
            if len(address) + 1 + max(node.height(), joining_height) <= total
        ]
        if not fits:
            return ""
        # shallowest first, then rightmost (largest address at one depth)
        return min(fits, key=lambda a: (len(a), [-int(bit) for bit in a]))

    def find(self, address):
        node = self.root
        for bit in address:
            node = node.left if bit == "0" else node.right
        return node

    def insert(self, other):
        anchor = self.find(self.insertion_address(other.height()))
        parent = anchor.parent
        joint = _RefNode(left=anchor, right=other)
        if parent is None:
            self.root = joint
        elif parent.left is anchor:
            parent.left = joint
            joint.parent = parent
        else:
            parent.right = joint
            joint.parent = parent
        node = joint
        while node is not None:
            node.bkey = None
            node = node.parent

    def remove(self, names):
        leaves = {node.member: node for _, node in self.nodes() if node.member}
        for name in [m for m in self.members() if m in names]:
            leaf = leaves[name]
            parent = leaf.parent
            sibling = parent.right if parent.left is leaf else parent.left
            grand = parent.parent
            sibling.parent = grand
            if grand is None:
                self.root = sibling
            elif grand.left is parent:
                grand.left = sibling
            else:
                grand.right = sibling
            node = grand
            while node is not None:
                node.bkey = None
                node = node.parent


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 4), st.integers(0, 2)),
        st.tuples(st.just("remove"), st.lists(st.integers(0, 40), max_size=3)),
        st.tuples(st.just("bkey"), st.integers(0, 200), st.integers(1, 10**6)),
        st.tuples(st.just("share")),
    ),
    max_size=30,
)


@given(st.integers(1, 6), _OPS)
@settings(max_examples=120, deadline=None)
def test_matches_reference_model(start, ops):
    """Random inserts (grafts, merges, shared merges of decoded trees),
    removals, blinded-key writes and re-decodes keep the persistent tree
    identical to the reference model: members,
    height, every node id (with its member and blinded key), and the
    insertion point for every joining height."""
    fresh = iter(f"n{i}" for i in range(10_000))
    names = [next(fresh) for _ in range(start)]
    tree = _grow(names)
    ref = _RefTree(names)
    for op in ops:
        if op[0] == "insert":
            group = [next(fresh) for _ in range(op[1])]
            if op[2] == 0:
                tree.insert_tree(_grow(group))
            elif op[2] == 1:
                tree, _ = KeyTree.merge([tree, _grow(group)])
            else:  # a shared merge of two decoded broadcasts
                tree, _ = KeyTree.merge(
                    [KeyTree.decode(tree.serialize()),
                     KeyTree.decode(_grow(group).serialize())]
                )
            ref.insert(_RefTree(group).root)
        elif op[0] == "remove":
            members = ref.members()
            doomed = {members[i % len(members)] for i in op[1]}
            if len(doomed) >= len(members):
                continue
            tree.remove_members(doomed)
            ref.remove(doomed)
        elif op[0] == "bkey":
            nodes = ref.nodes()
            address, node = nodes[op[1] % len(nodes)]
            assert tree.set_bkey(address, op[2])
            node.bkey = op[2]
        else:
            # Continue on a replica sharing every node with another one.
            data = tree.serialize()
            tree = KeyTree.decode(data)
            KeyTree.decode(data).insert_tree(KeyTree.singleton("bystander"))
        assert tree.members() == ref.members()
        assert tree.height() == ref.root.height()
        expected = sorted((a, n.member, n.bkey) for a, n in ref.nodes())
        actual = sorted((tree.node_id(n), n.member, n.bkey) for n in tree._all_nodes())
        assert actual == expected
        for joining in range(4):
            point = tree.insertion_point(joining)
            assert tree.node_id(point) == ref.insertion_address(joining)
