"""A sound violation heap's trees: the heap most hand-worked traces start
from, and readers that follow its links alone: no audit, no rank rule,
and no guard against a list that never ends."""

from violationheap import ViolationHeap


def one_deleted(n, low=0):
    """A heap of the keys low .. low + n - 1, inserted in order, after one
    delete_min took low; returns it and each element's handle by its key,
    low's included."""
    h = ViolationHeap()
    hs = {k: h.insert(k) for k in range(low, low + n)}
    assert h.delete_min() == (low, None)
    return h, hs


def roots(h):
    """The root cycle from the first root; empty for an empty heap."""
    out = []
    r = h._first
    while r is not None:
        out.append(r)
        r = r.nxt
        if r is h._first:
            break
    return out


def children(x):
    """x's children, oldest first."""
    out = []
    c = x.down
    while c is not None:
        out.append(c)
        c = c.prv
    return out[::-1]


def subtree(x):
    """Every node under x, x included, each after its parent."""
    out = [x]
    for u in out:      # the loop reaches the children it appends
        out += children(u)
    return out


def shape(h, handles):
    """Every node's key, rank and links as indexes into handles, the root
    order from the first root, and the counters."""
    at = {x: i for i, x in enumerate(handles)}
    at[None] = None
    nodes = [(x.key, x.rank, at[x.down], at[x.nxt], at[x.prv]) for x in handles]
    return nodes, [at[r] for r in roots(h)], h.telemetry
