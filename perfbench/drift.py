"""A unicycle drifting in a position-dependent current (the fresh_fields system).

    x' = v cos(theta) + C sin(K y)
    y' = v sin(theta) + C sin(K x)
    theta' = omega

State (x, y, theta) with a periodic heading, input (v, omega).  The current
depends on absolute position, so the relation has no translation invariance
and no two generated specs share an abstraction.  GROWTH is the componentwise
Jacobian bound derived in README.md; it holds for every state and for every
input with |v| <= V_MAX.
"""

from __future__ import annotations

import numpy as np

from gridsynth.dynamics import VectorField

NAME = "drift_unicycle"
C = 0.12  # current amplitude
K = 1.2  # current wave number
V_MAX = 1.0  # |v| bound of every generated input box
OMEGA_MAX = 2.0  # |omega| bound of every generated input box

GROWTH = np.array(
    [
        [0.0, C * K, V_MAX],
        [C * K, 0.0, V_MAX],
        [0.0, 0.0, 0.0],
    ]
)


def drift_f(x, u):
    """Broadcasts over a leading batch axis in x (and optionally in u)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v, omega = u[..., 0], u[..., 1]
    theta = x[..., 2]
    return np.stack(
        [
            v * np.cos(theta) + C * np.sin(K * x[..., 1]),
            v * np.sin(theta) + C * np.sin(K * x[..., 0]),
            omega * np.ones_like(theta),
        ],
        axis=-1,
    )


FIELD = VectorField(
    name=NAME, dim_state=3, dim_input=2, eval_fn=drift_f, growth_matrix=GROWTH
)
