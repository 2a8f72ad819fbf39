"""Shared test helpers."""

import numpy as np


def dense_b(n, arcs):
    """The dense n x n coefficient matrix B whose arcs by depth level are ``arcs``.

    ``B[i, j]`` is node j's coefficient on parent i; padding columns (the node
    itself) are skipped, so B stays zero on and below the diagonal.
    """
    b = np.zeros((n, n))
    for nodes, par, c in arcs:
        real = par != nodes[:, None]
        b[par[real], np.broadcast_to(nodes[:, None], par.shape)[real]] = c[:, 0, :][real]
    return b
