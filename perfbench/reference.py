"""Independent numpy evaluator of the two-group strategic response model.

It never imports flab. Everything is computed from the model's definition
with `np.linalg`:

- an agent of group g with cost A_g observes the rule r through noise of
  scale sigma and holds a posterior mean m;
- its response is dx = A_g^-1 m, its score gain r'dx and its cost
  dx'A_g dx / 2;
- E[m] = (1 - w) * prior mean + w * r, with signal weight
  w = scale^2 / (scale^2 + sigma^2), w = 1 for signal-trusting agents
  and at sigma = 0;
- the noise adds w^2 sigma^2 tr A_g^-1 to E[m'A_g^-1 m].

Disparities are group 1 minus group 2.
"""

import math

import numpy as np

# Definiteness labels use a 1e-9 eigenvalue tolerance scaled by the largest
# |eigenvalue|, values within 1e-10 of zero are labelled Neutrality, and
# projectors must commute with the inverse costs to 1e-10: the documented
# tolerances of the model's labels and of the projected formulas.
LABEL_TOL = 1e-9
SIGN_TOL = 1e-10
COMMUTE_TOL = 1e-10


def label(matrix):
    """Definiteness label of a symmetric matrix from np.linalg.eigvalsh."""
    m = np.asarray(matrix, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    tau = LABEL_TOL * (1.0 + float(np.abs(w).max()))
    lo, hi = float(w.min()), float(w.max())
    if abs(lo) <= tau and abs(hi) <= tau:
        return "Zero"
    if lo > tau:
        return "PD"
    if lo >= -tau:
        return "PSD"
    if hi < -tau:
        return "ND"
    if hi <= tau:
        return "NSD"
    return "Indefinite"


def region(value):
    if value > SIGN_TOL:
        return "Exploitation"
    if value < -SIGN_TOL:
        return "Burden"
    return "Neutrality"


def projector(node, dim):
    """Orthogonal projector from a dense matrix or a {"span": [...]} block."""
    if isinstance(node, dict):
        vecs = np.array(node["span"], dtype=float).reshape(-1, dim)
        if vecs.shape[0] == 0:
            return np.zeros((dim, dim))
        u, s, _ = np.linalg.svd(vecs.T, full_matrices=False)
        basis = u[:, s > 1e-10]
        return basis @ basis.T
    return np.array(node, dtype=float)


def _sym(m):
    return 0.5 * (m + m.T)


class Model:
    """One scenario file, evaluated from the model's definition."""

    def __init__(self, spec):
        d = spec["dimension"]
        self.dim = d
        self.rule = np.array(spec["rule"], dtype=float)
        self.cost = [np.array(spec["cost1"], dtype=float), np.array(spec["cost2"], dtype=float)]
        self.inv = [np.linalg.inv(a) for a in self.cost]
        prior = spec["prior"]
        self.kind = prior["kind"]
        self.scale = float(prior.get("scale", 0.0))
        self.proj = None
        if self.kind == "naive":
            self.means = [np.zeros(d), np.zeros(d)]
        elif self.kind == "common":
            mean = np.array(prior["mean"], dtype=float)
            self.means = [mean, mean]
        else:
            self.proj = [projector(prior["subspace1"], d), projector(prior["subspace2"], d)]
            self.means = [p @ self.rule for p in self.proj]
        self.gap = self.inv[0] - self.inv[1]
        self.equal_costs = bool(np.array_equal(self.cost[0], self.cost[1]))

    # -- expected gains -------------------------------------------------

    def weight(self, sigmas):
        s = np.asarray(sigmas, dtype=float)
        if self.kind == "naive":
            return np.ones_like(s)
        g2 = self.scale * self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            w = g2 / (g2 + s * s)
        return np.where(s == 0.0, 1.0, w)

    def gains(self, group, sigmas):
        """Expected score gain, utility gain and a magnitude scale per sigma."""
        s = np.atleast_1d(np.asarray(sigmas, dtype=float))
        w = self.weight(s)
        inv = self.inv[group]
        m = (1.0 - w)[:, None] * self.means[group][None, :] + w[:, None] * self.rule[None, :]
        dx = m @ inv
        score = dx @ self.rule
        quad = np.einsum("ij,ij->i", dx, m)
        noise = w * w * s * s * np.trace(inv)
        utility = score - 0.5 * (quad + noise)
        return score, utility, np.abs(score) + 0.5 * (np.abs(quad) + noise)

    def curves(self, sigmas):
        """Score and utility disparities over sigmas, with a rounding scale."""
        s1, u1, m1 = self.gains(0, sigmas)
        s2, u2, m2 = self.gains(1, sigmas)
        return s1 - s2, u1 - u2, 1.0 + m1 + m2

    def limits(self):
        """(score, utility) disparities at zero noise and as the weight goes to 0."""
        out = []
        for w in (1.0, 0.0):
            vals = []
            for g in (0, 1):
                m = (1.0 - w) * self.means[g] + w * self.rule
                dx = self.inv[g] @ m
                score = float(self.rule @ dx)
                vals.append((score, score - 0.5 * float(m @ dx)))
            out.append((vals[0][0] - vals[1][0], vals[0][1] - vals[1][1]))
        return out

    def noise_unit(self):
        return max(self.scale, 1.0)

    # -- printed constants ---------------------------------------------

    def constants(self):
        r = self.rule
        c = {
            "rule_sq": float(r @ self.gap @ r),
            "trace_gap": 0.0 if self.equal_costs else float(np.trace(self.gap)),
            "cost_gap": label(self.cost[1] - self.cost[0]),
        }
        if self.kind == "common":
            mu = self.means[0]
            c["cross"] = float(mu @ self.gap @ r)
            c["prior_sq"] = float(mu @ self.gap @ mu)
            c["mismatch"] = float((mu - r) @ self.gap @ (mu - r))
        elif self.kind == "projected":
            known = self.inv[0] @ self.proj[0] - self.inv[1] @ self.proj[1]
            limit = float(r @ known @ r)
            c.update(cross=limit, prior_sq=limit, mismatch=c["rule_sq"] - limit, prior_limit=limit)
            c["ranks"] = tuple(int(round(float(np.trace(p)))) for p in self.proj)
            c["commute_defect"] = self.commute_defect()
        if self.kind != "naive" and c["trace_gap"] > 0.0:
            c["critical_scale"] = math.sqrt(max(2.0 * c["mismatch"] / c["trace_gap"], 0.0))
        return c

    def commute_defect(self):
        return max(
            float(np.abs(p @ inv - inv @ p).max()) for p, inv in zip(self.proj, self.inv)
        )

    # -- projected certificates ----------------------------------------

    def certificate_labels(self):
        """Labels of the known-side, unknown-side and split matrices."""
        eye = np.eye(self.dim)
        known = _sym(self.inv[0] @ self.proj[0] - self.inv[1] @ self.proj[1])
        unknown = _sym(self.inv[0] @ (eye - self.proj[0]) - self.inv[1] @ (eye - self.proj[1]))
        out = {"known": label(known), "unknown": label(unknown), "split": None}
        tg = float(np.trace(self.gap))
        if tg > 0.0 and self.scale > 0.0:
            out["split"] = label((2.0 / tg) * unknown - self.scale ** 2 * eye)
        return out

    def matrix_verdict(self):
        """The rule-agnostic utility verdict, or None where it does not apply."""
        labels = self.certificate_labels()
        if labels["split"] is None or labels["known"] not in ("PD", "PSD", "Zero"):
            return None
        if labels["unknown"] == "Indefinite":
            return None
        if labels["split"] in ("PD", "PSD", "Zero"):
            return "MonotoneForEveryRule"
        if labels["split"] == "ND":
            return "NonMonotoneForEveryRule"
        return "Indeterminate"

    def utility_sign_changes(self, lo, hi, points=20001):
        """Brackets (a, b) of the sign changes of the utility disparity on a log grid."""
        grid = np.geomspace(lo, hi, points)
        _, vals, _ = self.curves(grid)
        idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        return [(float(grid[i]), float(grid[i + 1])) for i in idx]
