"""The one strongly-connected-component pass, shared by every module.

Graphs are numbered: vertices are 0..n-1 and successors[v] lists the
targets of v's edges, repeats and self-loops allowed.  A caller whose
vertices are something else numbers them first.
"""

from __future__ import annotations

from typing import Sequence


def strongly_connected_components(
    successors: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Tarjan's algorithm, iterative to survive deep graphs, with its
    index, lowlink and on-stack state in lists indexed by vertex.

    Roots are tried in the order 0..n-1.  Components come out in reverse
    topological order (successors first): every edge leads inside its
    component or to one listed earlier.
    """
    n = len(successors)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # each frame is (vertex, iterator over its successors)
        work = [(root, iter(successors[root]))]
        while work:
            node, it = work[-1]
            for succ in it:
                if index[succ] < 0:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(successors[succ])))
                    break
                if on_stack[succ] and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            else:
                work.pop()
                low = lowlink[node]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components
