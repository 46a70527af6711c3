"""Every corrupt violation heap the tests build, one row per shape, each
built on a fresh heap by ``corrupt``, and what each walker makes of it:
the audit and the snapshot (test_invariants.py
``test_unending_lists_raise``), the teardown
(``test_dropping_a_corrupt_heap_ends_quietly``) and delete_min
(test_heap_core.py ``test_corrupt_root_list_raises``).  The first rows
break lists or carry a rank past the slot list; the rule rows after them
set one field each, so that every rule of full_audit but key-compare,
which needs a raising key, is some row's finding
(``test_every_audit_rule_has_a_row``), and a new rule needs one row."""

from collections import namedtuple

from trees import children, one_deleted, subtree
from violationheap.baselines import PairingHeap

# damage      (h, named objects) -> the heap the lists run into, or None
# audit       full_audit's findings, as (rule, the key of the node named)
# snapshot    potential_snapshot's HeapError; None when it measures
# delete_min  delete_min's HeapError; None when it returns the minimum
# kept        the heap keeps its slot list
# spoils      the drop tears down the heap the lists run into too
# mended      the heap audits clean after delete_min
# detail      full_audit's detail texts, where pinned; None leaves them
Shape = namedtuple("Shape", "damage audit snapshot delete_min kept spoils mended detail",
                   defaults=(False, False, False, None))


def _links(*damage):
    # set each named object's field to a named object or a value
    def apply(h, named):
        for node, attr, target in damage:
            setattr(named[node], attr, named.get(target, target))
    return apply


def _foreign_tree(h, named):
    # a root of rank 5 of another family's heap becomes h's first root,
    # through a decrease_key that cannot tell the handle from h's own;
    # the next root there has rank 6, past h's fresh slot list
    far, _ = one_deleted(1000, 10)
    x = far._first
    while x.rank != 5:
        x = x.nxt
    h.decrease_key(x, 0)
    return far


def _slots_across_insert(h, named):
    # an insert drops the kept slot list; put back, it misses the new root
    s = h._slots
    h.insert(50)
    assert h._slots is None
    h._slots = s


_NO_END = "the roots or children of NodeHandle(1, None) do not return to it"
_REMOVED = "the roots or children of NodeHandle(1, None) reach a removed node"
_ROOTS = "root list from node NodeHandle(1, None) does not end"
_KIDS = ("child list of node NodeHandle({}, None) does not end: "
         "it reaches NodeHandle({}, None) again")
_KID_Z = "child list of node NodeHandle(1, None) reaches a removed node NodeHandle(0, None)"
_PAST = "NodeHandle({}, None) has rank {}, past the slot list's top rank {}"
_NEGATIVE = "NodeHandle({}, None) has negative rank {}"
_IN_FLIGHT = "called while this heap's own delete_min runs"

# the base (see base) names its first root root, the removed node z, the
# first root's oldest and last children, the childless grandchild leaf
# (5), the roots a and b, the sibling's roots x and y, the heap and its
# family's Telemetry
SHAPES = {
    # the root list skips the first root: root -> b -> a -> b
    "loop": Shape(_links(("a", "nxt", "b")), (("structure", 101),), _ROOTS,
                  "rank 8 in a heap of 11: " + _NO_END),
    # the oldest child's older sibling is the last child
    "child-cycle": Shape(_links(("oldest", "prv", "last")), (("structure", 4),),
                         _KIDS.format(1, 4), None),
    "into-roots": Shape(_links(("a", "nxt", "x")), (("structure", 500), ("count", None)),
                        _ROOTS, "rank 8 in a heap of 11: " + _NO_END, spoils=True),
    # the oldest child's older sibling is x, and x and y are each other's
    "into-kids": Shape(_links(("oldest", "prv", "x"), ("x", "prv", "y"), ("y", "prv", "x")),
                       (("structure", 500),), _KIDS.format(1, 500), None, spoils=True),
    "removed": Shape(_links(("a", "nxt", "z")), (("structure", 0),), _ROOTS, _REMOVED),
    "removed-down": Shape(_links(("root", "down", "z")),
                          (("structure", 0), ("heap-order", 0), ("rank-bound", 1),
                           ("count", None)), _KID_Z, _REMOVED),
    "removed-prv": Shape(_links(("oldest", "prv", "z")), (("structure", 0),), _KID_Z,
                         _REMOVED),
    "last-child-self": Shape(_links(("last", "nxt", "last")), (("structure", 4),), None,
                             "rank 8 in a heap of 11: " + _NO_END),
    # a root hung under the root whose nxt names it: the links agree,
    # yet the walk meets that root twice
    "into-root": Shape(_links(("a", "down", "b")), (("structure", 101),),
                       _KIDS.format(100, 101), None),
    "into-first-root": Shape(_links(("b", "down", "root")), (("structure", 1),),
                             _KIDS.format(101, 1), None),
    # the first root's last child points at its oldest, not its parent
    "kept-child-loop": Shape(_links(("last", "nxt", "oldest")), (("structure", 4),), None,
                             "rank 8 in a heap of 9: " + _NO_END, kept=True),
    "foreign-tree": Shape(_foreign_tree, (("max-rank", 281), ("count", None)), None,
                          _PAST.format(281, 6, 3), spoils=True),
    "rank-past-slots": Shape(_links(("b", "rank", 30)),
                             (("rank-bound", 101), ("max-rank", 101)), None,
                             _PAST.format(101, 30, 3)),
    "rank-past-kept-slots": Shape(_links(("root", "rank", 30)),
                                  (("rank-bound", 1), ("max-rank", 1), ("slot-cache", 1)),
                                  None, _PAST.format(1, 30, 2), kept=True),
    # the rule rows
    "heap-order": Shape(_links(("last", "key", -100)), (("heap-order", -100),), None, None,
                        mended=True),
    "first-root": Shape(_links(("heap", "_first", "b")),
                        (("first-root", 100), ("first-root", 1)), None, None, mended=True),
    "count-high": Shape(_links(("heap", "_count", 12)), (("count", None),), None, None),
    # no root list, as while delete_min runs
    "count-empty": Shape(_links(("heap", "_first", None)), (("count", None),), _IN_FLIGHT,
                         _IN_FLIGHT),
    "max-rank-low": Shape(_links(("family", "max_rank", 1)), (("max-rank", 1),), None, None,
                          mended=True),
    # a childless node's formula bound is rank_from_pair(-1, -1) = 0
    "leaf-rank-high": Shape(_links(("leaf", "rank", 2)), (("rank-bound", 5),), None, None,
                            detail=("rank 2 exceeds formula bound 0",)),
    "leaf-rank-negative": Shape(_links(("leaf", "rank", -1)), (("rank-bound", 5),), None,
                                None, detail=("negative rank -1",)),
    "root-rank-negative": Shape(_links(("root", "rank", -1)), (("rank-bound", 1),), None,
                                None, mended=True),
    "slots-across-insert": Shape(_slots_across_insert, (("slot-cache", 50),), None, None,
                                 kept=True),
    # a negative rank of a walked tree or a kept minimum: a slot index
    # below 0 would read the list from its end
    "negative-rank": Shape(_links(("b", "rank", -1)), (("rank-bound", 101),), None,
                           _NEGATIVE.format(101, -1)),
    "negative-rank-joined": Shape(_links(("b", "rank", -3)), (("rank-bound", 101),), None,
                                  _NEGATIVE.format(101, -3)),
    "kept-negative-rank": Shape(_links(("root", "rank", -1)),
                                (("rank-bound", 1), ("slot-cache", 1)), None,
                                _NEGATIVE.format(1, -1), kept=True),
}

# pairing heaps of 0, 1, 2: the root 0 has the children 2 and then 1,
# along child and sibling links, and 1's sibling is made the root's first
# child, a sibling cycle, or the root.  Teardown is their one walker
PAIRING = {"pairing-sibling-cycle": lambda root: root.child,
           "pairing-into-root": lambda root: root}


def base(kept=False):
    """A violation row's undamaged heap: 1 .. 9 after one delete_min took
    0, so one root, 1, of rank 2 with four children, and a kept slot
    list; unless kept, the roots a (100) and b (101) join, making the
    root list root -> b -> a -> root and dropping the list.  Returns it,
    a sibling holding x (500) and y (501), and the named objects."""
    h, hs = one_deleted(10)
    g = h.spawn()
    kids = children(h._first)
    named = dict(root=h._first, z=hs[0], oldest=kids[0], last=kids[-1],
                 leaf=subtree(h._first)[-1], x=g.insert(500), y=g.insert(501),
                 heap=h, family=h.telemetry)
    if not kept:
        named.update(a=h.insert(100), b=h.insert(101))
    return h, g, named


def corrupt(name):
    """A fresh heap damaged as row name says, and the heap its lists run
    into: a sibling, which they may leave alone."""
    if name in PAIRING:
        q = PairingHeap()
        for k in range(3):
            q.insert(k)
        root = q._root
        root.child.sibling.sibling = PAIRING[name](root)
        return q, q.spawn()
    shape = SHAPES[name]
    h, g, named = base(shape.kept)
    return h, shape.damage(h, named) or g
