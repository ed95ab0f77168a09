"""Closed-form and Monte Carlo analysis of group disparities that arise
when strategic agents adapt to a noisy linear scoring rule.

The package splits into small layers: dense symmetric linear algebra
(`linalg_core`), per-agent behavior (`agents`), analytic disparity
formulas (`closed_form`), regime classification (`regimes`), Monte Carlo
cross-checks (`mc_oracle`), and a command-line front end (`cli`).
"""

__version__ = "0.1.0"
