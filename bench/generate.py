"""Seeded model generators for the benchmark workloads.

Every generator returns schema-v1 model documents (plain dicts) that go
through ``gaussid.cli.parse_model`` unchanged.  The schema rejects unknown
fields, so :func:`write_workload` records the seed and the generator
parameters in a ``meta.json`` next to the models.

Workloads:

* ``golden`` - the two committed models under ``docs/models``, unchanged.
* ``scale_1500`` - the scaling diagram: Beta(U(1,5), U(1,5)) parameters on
  ``logistic_scaled(0,1)``, one binomial observation each (count
  U{10..60}), plus deterministic nodes ``p_u * p_v / (1 - p_v)`` on
  ``log_scaled(0,1)``.
* ``mixed_expr`` - Beta, pooled Normal and lognormal-sample parameters
  under nonlinear fan-in-6 expressions (``log_scaled``) and affine
  combinations of the Normal parameters (``scaled``, recognized linear).

Generated diagrams are never filtered: a diagram the solver cannot handle
is a failure the benchmark must count, not one it may hide.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

GOLDEN_MODELS = ("beta_binomial.json", "risk_difference.json")

# Sizes of the full workloads and of the quick smoke variant.
SIZES = {
    "scale_1500": {"n_basic": 1000, "n_det": 500},
    "mixed_expr": {
        "n_beta": 40,
        "n_normal": 40,
        "n_lognormal": 40,
        "n_nonlinear": 180,
        "n_affine": 60,
    },
}
SMOKE_SIZES = {
    "scale_1500": {"n_basic": 20, "n_det": 10},
    "mixed_expr": {
        "n_beta": 4,
        "n_normal": 6,
        "n_lognormal": 4,
        "n_nonlinear": 12,
        "n_affine": 4,
    },
}


def _basic(nid: str, transform: dict, prior: dict) -> dict:
    return {"id": nid, "kind": "basic", "transform": transform, "prior": prior}


def _det(nid: str, transform: dict, expr: str) -> dict:
    return {"id": nid, "kind": "deterministic", "transform": transform, "expr": expr}


def _evidence(nid: str, parent: str, spec: dict) -> dict:
    return {"id": nid, "kind": "evidence", "parent": parent, "evidence": spec}


def _transform(kind: str, a: float, b: float) -> dict:
    return {"kind": kind, "a": a, "b": b}


def _beta_with_binomial(rng: np.random.Generator, nid: str, eid: str) -> tuple[dict, dict]:
    alpha, beta = (float(v) for v in rng.uniform(1.0, 5.0, size=2))
    count = int(rng.integers(10, 61))
    successes = int(rng.binomial(count, rng.beta(alpha, beta)))
    node = _basic(
        nid,
        _transform("logistic_scaled", 0, 1),
        {"family": "beta", "alpha": alpha, "beta": beta},
    )
    ev = _evidence(eid, nid, {"variant": "binomial", "count": count, "successes": successes})
    return node, ev


def scale_doc(seed: int, n_basic: int, n_det: int) -> dict:
    """The scaling diagram: ``n_basic`` Beta parameters and ``n_det`` ratios."""
    rng = np.random.default_rng([seed, 1500])
    params, evidence = [], []
    for i in range(n_basic):
        node, ev = _beta_with_binomial(rng, f"p{i}", f"y{i}")
        params.append(node)
        evidence.append(ev)
    for j in range(n_det):
        u, v = (int(k) for k in rng.choice(n_basic, size=2, replace=False))
        params.append(_det(f"q{j}", _transform("log_scaled", 0, 1), f"p{u} * p{v} / (1 - p{v})"))
    return {"schema_version": "1", "nodes": params + evidence}


def _coef(rng: np.random.Generator) -> str:
    return f"{rng.uniform(0.2, 1.0):.3f}"


def _nonlinear_expr(rng: np.random.Generator, template: int, xs: list[str]) -> str:
    """One of four positive fan-in-6 shapes: products, squares, exp, ratios."""
    x1, x2, x3, x4, x5, x6 = xs
    c = [_coef(rng) for _ in range(4)]
    if template == 0:
        return f"{c[0]}*{x1}*{x2} + {c[1]}*{x3}^2 + {c[2]}*{x4}*{x5}*{x6}"
    if template == 1:
        return f"({c[0]}*{x1}*{x2} + {c[1]}*{x3}^2 + {c[2]}*{x4}) / (1 + {x5}*{x6})"
    if template == 2:
        return f"{c[0]}*exp(-{x1})*{x2} + {c[1]}*{x3}*{x4} + {c[2]}*{x5}^2*{x6}"
    return f"({c[0]}*{x1}^2 + {c[1]}*exp(-{c[3]}*{x2})*{x3} + {c[2]}*{x4}*{x5}) / (1 + {x6})"


def _affine_expr(rng: np.random.Generator, zs: list[str]) -> str:
    expr = f"{rng.uniform(-1.0, 1.0):.3f}"
    for z in zs:
        sign = "+" if rng.random() < 0.5 else "-"
        expr += f" {sign} {_coef(rng)}*{z}"
    return expr


def mixed_doc(
    seed: int,
    n_beta: int,
    n_normal: int,
    n_lognormal: int,
    n_nonlinear: int,
    n_affine: int,
) -> dict:
    """Three evidence paths under nonlinear and affine deterministic nodes.

    The first half of the nonlinear nodes read only basic positive
    parameters; the second half read three basic positive parameters and
    three first-half nodes, so the diagram has depth without values that
    grow without bound.  Every fourth deterministic node is affine.
    """
    rng = np.random.default_rng([seed, 360])
    params, evidence = [], []

    betas = [f"b{i}" for i in range(n_beta)]
    for i, nid in enumerate(betas):
        node, ev = _beta_with_binomial(rng, nid, f"yb{i}")
        params.append(node)
        evidence.append(ev)

    normals = [f"z{i}" for i in range(n_normal)]
    for i, nid in enumerate(normals):
        mean = float(rng.uniform(-2.0, 2.0))
        var = float(rng.uniform(0.5, 4.0))
        params.append(
            _basic(nid, _transform("scaled", 0, 1), {"family": "normal", "mean": mean, "variance": var})
        )
        truth = rng.normal(mean, np.sqrt(var))
        for k in range(2):
            count = int(rng.integers(3, 21))
            noise = float(rng.uniform(0.5, 2.0))
            spec = {
                "variant": "normal_known_var",
                "count": count,
                "sample_mean": float(rng.normal(truth, np.sqrt(noise / count))),
                "variance": noise,
            }
            evidence.append(_evidence(f"yz{i}_{k}", nid, spec))

    lognormals = [f"g{i}" for i in range(n_lognormal)]
    for i, nid in enumerate(lognormals):
        mean = float(rng.uniform(0.5, 1.5))
        var = float(rng.uniform(0.05, 0.5))
        params.append(
            _basic(
                nid,
                _transform("log_scaled", 0, 1),
                {"family": "lognormal", "mean": mean, "variance": var},
            )
        )
        samples = [float(v) for v in np.exp(rng.normal(np.log(mean), 0.3, size=8))]
        spec = {"variant": "normal_unknown_var", "lognormal_samples": True, "samples": samples}
        evidence.append(_evidence(f"yg{i}", nid, spec))

    positives = betas + lognormals
    first_half: list[str] = []
    n_det = n_nonlinear + n_affine
    made_nonlinear = made_affine = 0
    for k in range(n_det):
        affine_turn = k % 4 == 3 and made_affine < n_affine
        if affine_turn or made_nonlinear >= n_nonlinear:
            zs = [normals[int(i)] for i in rng.choice(n_normal, size=6, replace=False)]
            params.append(_det(f"a{made_affine}", _transform("scaled", 0, 1), _affine_expr(rng, zs)))
            made_affine += 1
            continue
        nid = f"n{made_nonlinear}"
        if made_nonlinear < n_nonlinear // 2:
            xs = [positives[int(i)] for i in rng.choice(len(positives), size=6, replace=False)]
            first_half.append(nid)
        else:
            xs = [positives[int(i)] for i in rng.choice(len(positives), size=3, replace=False)]
            xs += [first_half[int(i)] for i in rng.choice(len(first_half), size=3, replace=False)]
            xs = [xs[int(i)] for i in rng.permutation(6)]
        expr = _nonlinear_expr(rng, made_nonlinear % 4, xs)
        params.append(_det(nid, _transform("log_scaled", 0, 1), expr))
        made_nonlinear += 1

    return {"schema_version": "1", "nodes": params + evidence}


def workload_docs(name: str, seed: int, smoke: bool = False) -> dict:
    """The generated documents of one workload, keyed by file name."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    if name == "scale_1500":
        return {"scale.json": scale_doc(seed, **sizes)}
    return {"mixed.json": mixed_doc(seed, **sizes)}


def write_workload(name: str, seed: int, root: Path, out: Path, smoke: bool = False) -> list[Path]:
    """Write a workload's models and ``meta.json`` into ``out``; return model paths.

    The golden models are copied byte for byte from ``root/docs/models``.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if name == "golden":
        paths = [
            Path(shutil.copyfile(root / "docs" / "models" / fname, out / fname))
            for fname in GOLDEN_MODELS
        ]
    else:
        paths = []
        for fname, doc in workload_docs(name, seed, smoke).items():
            paths.append(out / fname)
            paths[-1].write_text(json.dumps(doc, indent=1), encoding="utf-8")
    meta = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "sizes": (SMOKE_SIZES if smoke else SIZES).get(name),
        "models": [p.name for p in paths],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return paths
