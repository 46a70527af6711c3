"""A sound violation heap's trees, read by following its links alone: no
audit, no rank rule, and no guard against a list that never ends."""


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
