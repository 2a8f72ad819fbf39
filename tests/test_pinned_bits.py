"""``infer solve --json`` pinned to its bits on small diagrams of every structure.

Each diagram below runs a branch of the structural analysis (depth levels,
components, evidence groups) or of the packed kernels that the benchmark's
workloads do not reach.  The first 16 hex digits of the sha256 of the
printed JSON, pooled and ``--no-pool``, are frozen: a rewrite of those
branches must print the same bytes.  The digests were taken on x86-64 with
numpy 2.4; another platform's libm or BLAS may round differently.
"""

import hashlib
import json

import numpy as np
import pytest

from gaussid.cli import main
from helpers import bench_generate

SCALED = {"kind": "scaled", "a": 0.0, "b": 1.0}
LOG = {"kind": "log_scaled", "a": 0.0, "b": 1.0}


def normal(nid, mean, variance, transform=SCALED):
    return {
        "id": nid, "kind": "basic", "transform": transform,
        "prior": {"family": "normal", "mean": mean, "variance": variance},
    }


def det(nid, expr, transform=SCALED):
    return {"id": nid, "kind": "deterministic", "transform": transform, "expr": expr}


def look(nid, parent, mean, variance):
    return {
        "id": nid, "kind": "evidence", "parent": parent,
        "evidence": {
            "variant": "normal_known_var", "count": 1, "sample_mean": mean, "variance": variance,
        },
    }


def wide_groups(count=12):
    """``count`` groups of two looks on d = u * v + w: one class of groups of three live ancestors."""
    rng = np.random.default_rng(1)
    nodes = []
    for g in range(count):
        nodes += [normal(f"{p}{g}", rng.uniform(1, 2), rng.uniform(0.05, 0.2)) for p in "uvw"]
        nodes.append(det(f"d{g}", f"u{g} * v{g} + w{g}"))
        nodes += [look(f"o{g}_{k}", f"d{g}", rng.uniform(2, 5), rng.uniform(0.3, 1)) for k in range(2)]
    return nodes


def joined_groups(count=12):
    """:func:`wide_groups` and an unobserved z = d0 + d1 + ...: one component, in which
    z's variance takes the subtraction of every group."""
    return wide_groups(count) + [det("z", " + ".join(f"d{g}" for g in range(count)))]


def diamond():
    """a -> b, a -> c, (b, c) -> d, with a second root under d and looks on d and b."""
    return [
        normal("a", 0.4, 0.2),
        normal("e", 1.2, 0.1),
        det("b", "exp(a)", LOG),
        det("c", "a * a + 1", LOG),
        det("d", "b * c + e"),
        look("od", "d", 3.0, 0.5),
        look("ob", "b", 1.4, 0.3),
        look("od2", "d", 3.3, 0.8),
    ]


def children_first():
    """Every child declared before its parents, so the order is the heap sort's."""
    return [
        look("oz", "z", 2.5, 0.4),
        det("z", "y * x + w"),
        det("y", "x + 0.5 * w"),
        look("ox", "x", 0.9, 0.2),
        normal("x", 1.0, 0.3),
        normal("w", 0.5, 0.2),
        look("oy", "y", 1.4, 0.6),
    ]


def difference_chain():
    """x0 .. x20 and a look on each difference x_i - x_(i-1): one group of 20 entries."""
    rng = np.random.default_rng(2)
    nodes = [normal(f"x{i}", rng.uniform(-1, 1), rng.uniform(0.5, 2)) for i in range(21)]
    nodes += [det(f"d{i}", f"x{i} - x{i - 1}") for i in range(1, 21)]
    nodes += [look(f"o{i}", f"d{i}", rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.4)) for i in range(1, 21)]
    return nodes


def singletons():
    """Components of one node: looked at once, twice and never, and a Beta with a count."""
    return [
        normal("s0", 0.1, 1.0),
        normal("s1", 0.7, 0.4),
        normal("s2", -0.3, 2.0),
        {
            "id": "p", "kind": "basic",
            "transform": {"kind": "logistic_scaled", "a": 0.0, "b": 1.0},
            "prior": {"family": "beta", "alpha": 2.0, "beta": 3.0},
        },
        look("o0", "s0", 0.4, 0.5),
        look("o1a", "s1", 1.1, 0.2),
        look("o1b", "s1", 0.9, 0.3),
        {
            "id": "op", "kind": "evidence", "parent": "p",
            "evidence": {"variant": "binomial", "count": 30, "successes": 11},
        },
    ]


def uneven_fan_in():
    """Looks on sums of 6 and of 9 live parents, whose components differ in width."""
    rng = np.random.default_rng(3)
    nodes = [normal(f"x{i}", rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)) for i in range(6)]
    nodes += [normal(f"y{i}", rng.uniform(-1, 1), rng.uniform(0.1, 0.5)) for i in range(9)]
    nodes.append(det("f", "x0 * x1 + x2 * x3 - x4 * x5"))
    nodes.append(det("g", " + ".join(f"{rng.uniform(0.5, 2):.3f} * y{i}" for i in range(9))))
    nodes += [look("of", "f", 1.2, 0.3), look("ox", "x0", 0.8, 0.2), look("og", "g", 2.0, 0.5)]
    nodes += [look("og2", "g", 2.4, 0.7)]
    return nodes


def no_evidence():
    return [normal("u", 1.5, 0.2), normal("v", 0.5, 0.1), det("w", "u * v + u", LOG)]


def deep_chain():
    """c_i = 0.9 c_(i-1) + x_i for i up to 30: a level per node, looks at both ends."""
    rng = np.random.default_rng(4)
    nodes = [normal(f"x{i}", rng.uniform(-1, 1), rng.uniform(0.05, 0.2)) for i in range(31)]
    nodes.append(det("c0", "x0"))
    nodes += [det(f"c{i}", f"0.9 * c{i - 1} + x{i}") for i in range(1, 31)]
    return nodes + [look("o0", "c0", 0.3, 0.2), look("o30", "c30", 1.5, 0.4)]


def split_shape():
    """One shape at two levels: 20 nodes a_i = u_i * v_i, then 5 nodes b_j = a_j * v_j.

    The first level holds at least ``_BATCH_MIN`` of the shape's members and
    the second fewer, with looks on some of each, one node seen twice."""
    rng = np.random.default_rng(5)
    nodes = [normal(f"{p}{i}", rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.2)) for i in range(20) for p in "uv"]
    nodes += [det(f"a{i}", f"u{i} * v{i}") for i in range(20)]
    nodes += [det(f"b{j}", f"a{j} * v{j}") for j in range(5)]
    looked = [(f"a{i}", i) for i in range(0, 20, 3)] + [("b1", 0), ("b3", 1), ("b3", 2)]
    return nodes + [look(f"o{p}_{k}", p, rng.uniform(0.5, 2), rng.uniform(0.2, 0.6)) for p, k in looked]


def unobserved_join():
    """z = x * y + w and q = z - x, neither looked at, over roots each looked at (y twice)."""
    return [
        normal("x", 0.8, 0.3),
        normal("y", 1.2, 0.2),
        normal("w", 0.5, 0.1),
        det("z", "x * y + w"),
        det("q", "z - x"),
        look("ox", "x", 1.0, 0.2),
        look("oy", "y", 1.1, 0.3),
        look("oy2", "y", 1.3, 0.5),
        look("ow", "w", 0.4, 0.2),
    ]


def mixed_slots():
    """Two interleaved components of 4 members, 2 live, in one block, whose live
    members sit at slots {0, 2} and {0, 1}; both groups take the wide update."""
    return [
        normal("a", 0.3, 0.2),
        normal("p", 0.7, 0.1),
        det("b", "a * a"),
        normal("q", 1.4, 0.2),
        normal("c", 1.1, 0.3),
        det("r", "p * q"),
        det("d", "b * c"),
        det("s", "r + p"),
        look("od1", "d", 0.2, 0.4),
        look("od2", "d", 0.3, 0.6),
        look("oc", "c", 1.0, 0.5),
        look("or", "r", 1.2, 0.3),
        look("os", "s", 1.6, 0.5),
    ]


def no_nodes():
    return []


def beta_family():
    """The benchmark's scaling diagram at 40 Betas, each with a binomial count, and 20
    ratios: the prior map, the binomial references and each Beta inversion run as
    polygamma passes over arrays."""
    return bench_generate().scale_doc(1, 40, 20)["nodes"]


DIAGRAMS = {
    "wide_groups": wide_groups,
    "joined_groups": joined_groups,
    "joined_groups_60": lambda: joined_groups(60),
    "diamond": diamond,
    "children_first": children_first,
    "difference_chain": difference_chain,
    "singletons": singletons,
    "uneven_fan_in": uneven_fan_in,
    "no_evidence": no_evidence,
    "deep_chain": deep_chain,
    "split_shape": split_shape,
    "unobserved_join": unobserved_join,
    "mixed_slots": mixed_slots,
    "no_nodes": no_nodes,
    "beta_family": beta_family,
}

# name -> (pooled, --no-pool): the first 16 hex digits of the sha256 of stdout
DIGESTS = {
    "wide_groups": ("1f2f4e0acb4dbdc1", "106ff5a4ed8653fe"),
    "joined_groups": ("4166b76ba7d656b7", "6b35bd1dcbf8bdf6"),
    "joined_groups_60": ("bda4ffbdff7b0e6d", "a2f91e315b6a418a"),
    "diamond": ("3156bb978edfa41d", "1d2cfd63e3d3ffe7"),
    "children_first": ("6f8441302ffaa053", "6f8441302ffaa053"),
    "difference_chain": ("4ece903689f28b3a", "4ece903689f28b3a"),
    "singletons": ("15c42a6e9876aac6", "7d85d0e697308f25"),
    "uneven_fan_in": ("0eacfc760f2b0f9a", "e6b82c6498c366d1"),
    "no_evidence": ("bf196becfb633e11", "bf196becfb633e11"),
    "deep_chain": ("91204a5a6f868a03", "91204a5a6f868a03"),
    "split_shape": ("28a53d8e363107c9", "fa9fd84cf3e931de"),
    "unobserved_join": ("7bb40997f417ad2e", "4d1f92a4b8d019af"),
    "mixed_slots": ("738c11b286234392", "0d1958da6f9b8316"),
    "no_nodes": ("24d22b8361d19a33", "24d22b8361d19a33"),
    "beta_family": ("5bb0c216e3ffe73d", "5bb0c216e3ffe73d"),
}


def solve_digest(tmp_path, capsys, nodes, *flags):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": "1", "nodes": nodes}), encoding="utf-8")
    capsys.readouterr()
    assert main(["solve", str(path), "--json", *flags]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_solve_prints_the_pinned_bytes(name, tmp_path, capsys):
    nodes = DIAGRAMS[name]()
    got = (solve_digest(tmp_path, capsys, nodes), solve_digest(tmp_path, capsys, nodes, "--no-pool"))
    assert got == DIGESTS[name]
