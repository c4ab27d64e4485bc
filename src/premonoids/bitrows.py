"""Sets of indices 0..n-1 as int masks."""
from __future__ import annotations


def indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    s = bin(mask)[:1:-1]  # least significant bit first
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


def generating_pairs(up) -> tuple[list, list]:
    """A small set of pairs whose reflexive-transitive closure is the
    preorder ``up`` (bit rows over 0..k-1, row i has bit j when i <= j).

    Returns ``(links, covers)``: ``links`` pairs every member of a class both
    ways with the class's least member, ``covers`` holds the covering pairs
    between class minima.  Every pair i <= j is a chain of them, and every
    strict pair such a chain with at least one cover.  Members share their
    up-set, so classes are the distinct rows; the rest of c's strict up-set
    loses the up-set of each cover found, and the next cover is its element
    of largest up-set, which nothing left lies strictly below.

    Raises ``ValueError`` unless ``up`` is reflexive and transitive.  It is
    exactly when each class minimum's row is its class joined with its
    covers' rows: then every element lies in its own row, and j in up(i)
    gives up(j) <= up(i) by induction on the size of up(i), since a cover's
    row is a proper subset of the row it covers."""
    least: dict[int, int] = {}
    members: dict[int, int] = {}  # row -> mask of the elements with that row
    links = []
    for i, row in enumerate(up):
        m = least.setdefault(row, i)
        members[row] = members.get(row, 0) | 1 << i
        if m != i:
            links += [(i, m), (m, i)]
    minima = sum(1 << m for m in least.values())
    size = [row.bit_count() for row in up]
    covers = []
    for row, c in least.items():
        rest = row & minima & ~(1 << c)
        reached = members[row]
        while rest:
            d = max(indices(rest), key=size.__getitem__)
            covers.append((c, d))
            reached |= up[d]
            rest &= ~(up[d] | 1 << d)
        if reached != row:
            raise ValueError(f"the row of element {c} is not its class joined with its covers' rows")
    return links, covers


def close(succ) -> list[int]:
    """Reflexive-transitive closure of the digraph ``succ`` (a list of
    successor lists over 0..n-1): row i has bit j when j is reachable from i.

    Tarjan's strongly connected components, with an explicit stack: a
    component is finished only after every component it reaches, so its row
    is the OR of its members' bits and of the rows its edges lead to.  Work
    is linear in vertices plus edges, apart from the big-int ORs."""
    n = len(succ)
    rows = [0] * n
    order = [-1] * n  # discovery number; -1 while unseen
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        path = [(root, iter(succ[root]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    path.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    row = 0
                    for m in members:
                        row |= 1 << m
                        for w in succ[m]:
                            row |= rows[w]  # 0 inside this component
                    for m in members:
                        rows[m] = row
    return rows
