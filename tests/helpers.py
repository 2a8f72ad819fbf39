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
    """The factor A packed by ``pack`` as an n x n matrix with one column per node.

    Column t of row i of the packed ``a`` is the live node of rank t in row
    i's component; the columns of nodes without noise stay zero.
    """
    n = len(a)
    live_members = np.full((len(pack.members), a.shape[1]), -1)
    live_members[pack.comp[pack.live], pack.live_slot[pack.live]] = pack.live
    cols = live_members[pack.comp]
    rows = np.broadcast_to(np.arange(n)[:, None], cols.shape)
    dense = np.zeros((n, n))
    dense[rows[cols >= 0], cols[cols >= 0]] = a[cols >= 0]
    return dense


def _same_tree(a, b):
    """``a == b`` for two expressions, compared node by node along their
    post-order sequences, so no depth is too deep to compare."""
    return [_label(x) for x in a.postorder] == [_label(y) for y in b.postorder]


def _label(e):
    """The type of expression node ``e`` and its fields that are not operands."""
    return type(e), *(getattr(e, key, None) for key in ("value", "name", "exponent"))
