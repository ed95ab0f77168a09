"""Seeded scenario files for the benchmark workloads.

    python3 perfbench/gen.py --seed 7 --out perfbench/_work/inputs

writes the `highdim`, `dense_grid` and crash scenarios for seed 7. Costs
are built on random orthonormal bases, so the second group's cost
dominates the first's by construction. The d=32 projected prior knows a
subspace spanned by cost eigenvectors, and the equal-cost scenario has an
isotropic cost, so every projector commutes with the inverse costs.
"""

import argparse
import json
import os

import numpy as np

from reference import COMMUTE_TOL, Model

HIGHDIM = 32
DENSE_POINTS = 20_000


def _orthonormal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _spd(q, eigenvalues):
    m = (q * eigenvalues) @ q.T
    return 0.5 * (m + m.T)


def _rows(m):
    return [[float(v) for v in row] for row in m]


def highdim(seed, d=HIGHDIM):
    """A common-prior and a projected-prior scenario in dimension d."""
    rng = np.random.default_rng([seed, 1])
    # the spectra are fixed and only their placement is random, so the
    # Jacobi work varies little from seed to seed
    spectrum = np.linspace(1.0, 4.0, d)
    lift_spectrum = np.linspace(0.5, 3.0, d)
    q = _orthonormal(rng, d)
    lam1 = rng.permutation(spectrum)
    cost2 = _spd(q, lam1) + _spd(_orthonormal(rng, d), lift_spectrum)
    common = {
        "label": f"d={d} shared prior, seed {seed}",
        "dimension": d,
        "rule": rng.standard_normal(d).tolist(),
        "cost1": _rows(_spd(q, lam1)),
        "cost2": _rows(cost2),
        "prior": {"kind": "common", "mean": rng.standard_normal(d).tolist(),
                  "scale": float(rng.uniform(0.5, 3.0))},
    }
    q = _orthonormal(rng, d)
    lam1 = rng.permutation(spectrum)
    lam2 = lam1 + rng.permutation(lift_spectrum)
    known = {"span": _rows(q[:, : d // 2].T)}
    projected = {
        "label": f"d={d} shared known half-space, seed {seed}",
        "dimension": d,
        "rule": rng.standard_normal(d).tolist(),
        "cost1": _rows(_spd(q, lam1)),
        "cost2": _rows(_spd(q, lam2)),
        "prior": {"kind": "projected", "subspace1": known, "subspace2": known,
                  "scale": float(rng.uniform(0.5, 3.0))},
    }
    return {"highdim_common.json": common, "highdim_projected.json": projected}


def dense(seed, points=DENSE_POINTS):
    """A d=2 shared-prior scenario and an equal-cost projected one on dense log grids."""
    rng = np.random.default_rng([seed, 2])
    q = _orthonormal(rng, 2)
    lam1 = rng.uniform(1.0, 3.0, 2)
    cost2 = _spd(q, lam1) + _spd(_orthonormal(rng, 2), rng.uniform(0.5, 2.0, 2))
    grid = {"sigma_min": 1e-3, "sigma_max": 1e3, "points": points, "spacing": "log"}
    common = {
        "label": f"dense grid, shared prior, seed {seed}",
        "dimension": 2,
        "rule": rng.standard_normal(2).tolist(),
        "cost1": _rows(_spd(q, lam1)),
        "cost2": _rows(cost2),
        "prior": {"kind": "common", "mean": rng.standard_normal(2).tolist(),
                  "scale": float(rng.uniform(0.5, 3.0))},
        "sweep": grid,
    }
    # the overlap bounds are stated for a shared isotropic cost (README)
    cost = _rows(float(rng.uniform(1.0, 3.0)) * np.eye(2))
    equal = {
        "label": f"dense grid, equal costs, seed {seed}",
        "dimension": 2,
        "rule": rng.standard_normal(2).tolist(),
        "cost1": cost,
        "cost2": cost,
        "prior": {"kind": "projected",
                  "subspace1": {"span": [rng.standard_normal(2).tolist()]},
                  "subspace2": _rows(np.eye(2)),
                  "scale": float(rng.uniform(0.5, 2.0))},
        "sweep": grid,
    }
    return {"dense_common.json": common, "dense_equal.json": equal}


def crash(seed):
    """Inputs of the two `sweep --out-svg` calls that crash: a linear grid from 0, and one point."""
    rng = np.random.default_rng([seed, 3])
    q = _orthonormal(rng, 2)
    lam1 = rng.uniform(1.0, 3.0, 2)
    base = {
        "dimension": 2,
        "rule": rng.standard_normal(2).tolist(),
        "cost1": _rows(_spd(q, lam1)),
        "cost2": _rows(_spd(q, lam1 + rng.uniform(0.5, 2.0, 2))),
    }
    linear = dict(base, label="linear grid from zero", prior={"kind": "naive"},
                  sweep={"sigma_min": 0.0, "sigma_max": 10.0, "points": 11, "spacing": "linear"})
    single = dict(base, label="single point", prior={"kind": "common", "mean": [0.5, 2.0], "scale": 2.0},
                  sweep={"sigma_min": 0.01, "sigma_max": 100.0, "points": 61})
    return {"crash_linear.json": linear, "crash_points.json": single}


def check(spec):
    """Construction guarantees, re-checked: dominance, and commuting projectors."""
    model = Model(spec)
    gap = model.constants()["cost_gap"]
    if gap != ("Zero" if model.equal_costs else "PD"):
        raise ValueError(f"{spec['label']}: cost gap is {gap}")
    if model.kind == "projected" and not model.commute_defect() < COMMUTE_TOL:
        raise ValueError(f"{spec['label']}: commutation defect {model.commute_defect():.3e}")


def write(files, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, spec in files.items():
        check(spec)
        paths[name] = os.path.join(out_dir, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=1)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    files = {**highdim(args.seed), **dense(args.seed), **crash(args.seed)}
    for path in write(files, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
