"""Independent correctness references for solver output.

References are computed from the raw model document, sharing no code with
the solver:

* a Beta parameter whose only observation is one binomial count has the
  exact conjugate posterior Beta(alpha + s, beta + n - s);
* a Normal parameter whose observations are all ``normal_known_var``
  summaries has the closed-form Normal-Normal posterior (observations are
  on the transformed scale of the parameter);
* every other parameter must at least have finite moments.

Exactness holds because every observation in the benchmark's models sits
on a basic parameter, so deterministic children cannot move its posterior.
"""

from __future__ import annotations

import math

# Relative error above which a posterior moment misses its reference.
# The conjugate cases agree to about 1e-10 (Beta) and 1e-13 (Normal).
REL_TOL = 1e-8

# Golden-model posteriors stated in closed form, as a cross-check of the
# derivation below: Beta(8, 4); Beta(31, 21) and Beta(13, 39).
GOLDEN_BETA = {
    "beta_binomial.json": {"p": (8.0, 4.0)},
    "risk_difference.json": {"p_treated": (31.0, 21.0), "p_control": (13.0, 39.0)},
}


def _beta_moments(alpha: float, beta: float, a: float, b: float) -> tuple[float, float]:
    total = alpha + beta
    scale = b - a
    mean = alpha / total
    var = alpha * beta / (total * total * (total + 1.0))
    return a + scale * mean, var * scale * scale


def exact_posteriors(doc: dict) -> dict[str, tuple[float, float]]:
    """Natural-scale (mean, variance) of every parameter with a closed form."""
    nodes = {n["id"]: n for n in doc["nodes"]}
    observed: dict[str, list[dict]] = {}
    for n in doc["nodes"]:
        if n["kind"] == "evidence":
            observed.setdefault(n["parent"], []).append(n["evidence"])

    out: dict[str, tuple[float, float]] = {}
    for pid, specs in observed.items():
        node = nodes[pid]
        if node["kind"] != "basic":
            continue
        prior, t = node["prior"], node["transform"]
        a, b = float(t["a"]), float(t["b"])
        if (
            prior["family"] == "beta"
            and len(specs) == 1
            and specs[0]["variant"] == "binomial"
            and "alpha" not in specs[0]
        ):
            n, s = specs[0]["count"], specs[0]["successes"]
            out[pid] = _beta_moments(prior["alpha"] + s, prior["beta"] + n - s, a, b)
        elif prior["family"] == "normal" and all(
            sp["variant"] == "normal_known_var" and not sp.get("lognormal_samples") for sp in specs
        ):
            scale = b - a
            precision = scale * scale / prior["variance"]
            weighted = precision * (prior["mean"] - a) / scale
            for sp in specs:
                obs_precision = sp["count"] / sp["variance"]
                precision += obs_precision
                weighted += obs_precision * sp["sample_mean"]
            out[pid] = (a + scale * weighted / precision, scale * scale / precision)
    return out


def golden_references(name: str) -> dict[str, tuple[float, float]]:
    """The stated golden posteriors of one committed model (empty if none)."""
    return {
        pid: _beta_moments(alpha, beta, 0.0, 1.0)
        for pid, (alpha, beta) in GOLDEN_BETA.get(name, {}).items()
    }


def check_posterior(
    posterior: dict[str, tuple[float, float]], refs: dict[str, tuple[float, float]]
) -> tuple[list[str], float]:
    """Problems found in one solver posterior, and the worst relative error.

    ``posterior`` maps every parameter id to natural-scale (mean, variance).
    A mean's error is taken relative to the larger of its reference and the
    reference standard deviation, so a posterior centred near zero is not
    held to a tolerance finer than its own spread.
    """
    problems = []
    worst = 0.0
    for pid, (mean, var) in posterior.items():
        if not (math.isfinite(mean) and math.isfinite(var) and var >= 0.0):
            problems.append(f"{pid}: non-finite moments ({mean}, {var})")
    for pid, (ref_mean, ref_var) in refs.items():
        if pid not in posterior:
            problems.append(f"{pid}: missing from the posterior")
            continue
        mean, var = posterior[pid]
        err = max(
            abs(mean - ref_mean) / max(abs(ref_mean), math.sqrt(ref_var)),
            abs(var - ref_var) / ref_var,
        )
        if not math.isfinite(err):
            err = math.inf
        worst = max(worst, err)
        if not err <= REL_TOL:
            problems.append(
                f"{pid}: ({mean!r}, {var!r}) misses exact ({ref_mean!r}, {ref_var!r}),"
                f" relative error {err:.3e}"
            )
    return problems, worst


def check_monte_carlo(
    ess: float, mc_mean: dict[str, float], se_mean: dict[str, float], refs: dict
) -> list[str]:
    """Monte Carlo means against exact posteriors, where the ESS supports it.

    Below 100 effective samples the estimate says nothing and is not held
    to the reference; at or above it, each mean lies within 5 standard
    errors of its exact posterior mean.
    """
    if ess < 100.0:
        return []
    problems = []
    for pid, (ref_mean, _) in refs.items():
        dev = abs(mc_mean[pid] - ref_mean)
        if not dev <= 5.0 * se_mean[pid] + 1e-12:
            problems.append(
                f"{pid}: Monte Carlo mean {mc_mean[pid]!r} is {dev:.3e} from exact"
                f" {ref_mean!r} (se {se_mean[pid]:.3e})"
            )
    return problems
