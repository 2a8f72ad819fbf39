"""Shared test helpers."""

import sys
from pathlib import Path

import numpy as np


def bench_generate():
    """The benchmark's model generator, ``bench/generate.py``, as a module."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import generate
    finally:
        sys.path.remove(bench)
    return generate


def dense_b(n, arcs):
    """The dense n x n coefficient matrix B whose arcs by depth level are ``arcs``.

    ``B[i, j]`` is node j's coefficient on parent i; padding columns (the node
    itself) are skipped, so B stays zero on and below the diagonal.
    """
    b = np.zeros((n, n))
    for nodes, par, c in arcs:
        real = par != nodes[:, None]
        b[par[real], np.broadcast_to(nodes[:, None], par.shape)[real]] = c[real]
    return b


def dense_factor(a, pack):
    """The factor A laid out by ``pack.a`` as an n x n matrix with one column per node.

    Each block of ``pack.a`` is a (k, s, l) array of ``a``: entry (c, i, t)
    is row ``nodes[c, i]``'s column of live node ``cols[c, t]``; the columns
    of nodes without noise stay zero.
    """
    n = len(pack.comp)
    dense = np.zeros((n, n))
    for at, nodes, cols, _ in pack.a.blocks:
        dense[nodes[:, :, None], cols[:, None, :]] = a[at].reshape(nodes.shape + cols.shape[1:])
    return dense


def arcs_of(parents):
    """``(child, parent, n)`` of the parent lists ``parents``, as ``_depth_levels`` reads them."""
    child = np.repeat(np.arange(len(parents)), [len(ps) for ps in parents])
    return child, np.array([i for ps in parents for i in ps], dtype=np.intp), len(parents)


def depth_levels(parents):
    """The reference levels: each node's depth by a walk in the node order, as
    ``[(nodes, par)]`` with each row's distinct parents padded with its node."""
    depth = [0] * len(parents)
    rows = {}  # depth -> [node, *parents] per node
    for j, ps in enumerate(parents):
        if len(ps):
            depth[j] = 1 + max(depth[i] for i in ps)
            rows.setdefault(depth[j], []).append([j, *dict.fromkeys(ps)])
    levels = []
    for d in sorted(rows):
        width = max(map(len, rows[d]))
        padded = np.array([r + r[:1] * (width - len(r)) for r in rows[d]], dtype=int)
        levels.append((padded[:, 0], padded[:, 1:]))
    return levels


def components(parents):
    """Each node's weakly connected component, numbered by first node, by breadth-first search."""
    n = len(parents)
    near = [set() for _ in range(n)]
    for j, ps in enumerate(parents):
        for i in ps:
            near[i].add(j)
            near[j].add(i)
    comp, count = [-1] * n, 0
    for start in range(n):
        if comp[start] < 0:
            comp[start], queue = count, [start]
            while queue:
                for k in near[queue.pop()]:
                    if comp[k] < 0:
                        comp[k] = count
                        queue.append(k)
            count += 1
    return comp


def _same_tree(a, b):
    """``a == b`` for two expressions, compared node by node along their
    post-order sequences, so no depth is too deep to compare."""
    return [_label(x) for x in a.postorder] == [_label(y) for y in b.postorder]


def _label(e):
    """The type of expression node ``e`` and its fields that are not operands."""
    return type(e), *(getattr(e, key, None) for key in ("value", "name", "exponent"))
