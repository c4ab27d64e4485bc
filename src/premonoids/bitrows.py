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
