"""Continuous-time vector fields, RK4 integration, and box propagation.

Vector fields are registered under string names so a problem spec can refer
to them symbolically; the kinematic bicycle is built in.  integrate_path is
the one RK4 stepper.  A field may declare state components that f never
reads (the bicycle's position); integrate_path then evaluates f once per
distinct remaining coordinate of a batch and gives every row of a group the
same increment, so the result equals the plain per-row RK4 float for float.
Reachable boxes are propagated with a growth-matrix bound: the box center
follows the exact (numerically integrated) flow while the radius is
inflated by exp(L * tau), where L bounds the Jacobian magnitude
componentwise.  growth_factor computes exp(L * tau) as an entrywise upper
bound, never rounded below the exact value; for nilpotent L, such as the
bicycle's, it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GeometryError, NonFinite

# RK4 substeps per sampling period, shared by the abstraction and the closed
# loop so both certify the same integrator.
SUBSTEPS = 5


@dataclass(frozen=True)
class VectorField:
    """A named control system dx/dt = f(x, u).

    eval_fn must broadcast: x may be a single state (n,) or a batch (N, n);
    u is a single input (m,).  growth_matrix is a componentwise bound on
    |df_i/dx_j| over the whole operating domain, used for box propagation.
    build_abstraction may call eval_fn from several threads at once, so it
    must be a pure function of (x, u) that mutates no shared state.

    invariant_dims lists the state components eval_fn never reads: f(x, u)
    is the same for any two states that agree on the other components.  It
    is stored sorted; the default () declares nothing.  integrate_path uses
    it to integrate a batch once per distinct remaining coordinate and
    raises GeometryError if f contradicts it.
    """

    name: str
    dim_state: int
    dim_input: int
    eval_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    growth_matrix: np.ndarray = field(default=None)
    invariant_dims: tuple = ()

    def __post_init__(self):
        dims = tuple(sorted(int(d) for d in self.invariant_dims))
        if any(not 0 <= d < self.dim_state for d in dims):
            raise GeometryError(
                f"invariant dims of '{self.name}' must lie in [0, {self.dim_state})"
            )
        if len(set(dims)) != len(dims):
            raise GeometryError(f"invariant dims of '{self.name}' repeat an index")
        object.__setattr__(self, "invariant_dims", dims)
        L = np.asarray(
            self.growth_matrix
            if self.growth_matrix is not None
            else np.zeros((self.dim_state, self.dim_state)),
            dtype=float,
        )
        if L.shape != (self.dim_state, self.dim_state):
            raise GeometryError("growth matrix must be n x n")
        if not np.all(L >= 0):
            raise GeometryError("growth matrix entries must be non-negative")
        L.setflags(write=False)
        object.__setattr__(self, "growth_matrix", L)

    def __call__(self, x, u):
        return self.eval_fn(np.asarray(x, dtype=float), np.asarray(u, dtype=float))


# --- kinematic bicycle --------------------------------------------------------

# Steering is limited to [-1, 1]; the slip angle alpha = atan(tan(u2)/2)
# therefore never exceeds alpha_max below, and 1/cos(alpha_max) bounds
# |df_{1,2}/dx3| over the whole input box (f depends on x only through x3).
ALPHA_MAX = np.arctan(np.tan(1.0) / 2.0)
BICYCLE_GROWTH_C = 1.0 / np.cos(ALPHA_MAX)


def bicycle_f(x, u):
    """Kinematic bicycle: state (pos1, pos2, heading), input (speed, steering).

    Broadcasts over a leading batch axis in x.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    alpha = np.arctan(np.tan(u[..., 1]) / 2.0)
    heading = x[..., 2]
    inv_cos_a = 1.0 / np.cos(alpha)
    return np.stack(
        [
            u[..., 0] * np.cos(alpha + heading) * inv_cos_a,
            u[..., 0] * np.sin(alpha + heading) * inv_cos_a,
            u[..., 0] * np.tan(u[..., 1]) * np.ones_like(heading),
        ],
        axis=-1,
    )


BICYCLE = VectorField(
    name="bicycle",
    dim_state=3,
    dim_input=2,
    eval_fn=bicycle_f,
    growth_matrix=np.array(
        [
            [0.0, 0.0, BICYCLE_GROWTH_C],
            [0.0, 0.0, BICYCLE_GROWTH_C],
            [0.0, 0.0, 0.0],
        ]
    ),
    invariant_dims=(0, 1),
)

_REGISTRY: dict[str, VectorField] = {}


def register_field(vf: VectorField):
    _REGISTRY[vf.name] = vf


def get_field(name: str) -> VectorField:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise GeometryError(f"unknown vector field '{name}'") from None


register_field(BICYCLE)


# --- integration --------------------------------------------------------------


def _group_rows(cols):
    """Group the rows of cols (N, k) by bitwise equality.

    Returns (first, last, group): each group's first and last row index and
    each row's group number.
    """
    bits = np.ascontiguousarray(cols).view(np.int64)
    key = bits[:, 0] if bits.shape[1] else np.zeros(len(bits), np.int64)
    for col in bits.T[1:]:
        _, key = np.unique(key, return_inverse=True)
        _, code = np.unique(col, return_inverse=True)
        key = key * (code.max() + 1) + code
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    last = np.zeros_like(first)
    np.maximum.at(last, group, np.arange(len(key)))
    return first, last, group


def integrate_path(f, x0, u, tau, substeps=SUBSTEPS):
    """Fixed-step classic RK4 over [0, tau] with zero-order-hold input u.

    x0 may be a single state (n,) or an (N, n) batch.  Returns every substep
    state, shape (substeps + 1, *x0.shape), with the initial state first.
    The states are not judged: a blow-up comes back as non-finite values.

    If f declares invariant_dims, a batch is integrated once per distinct
    remaining coordinate: rows whose other components are bitwise equal form
    a group, f is evaluated on one representative row per group, and each
    substep adds the representative's increment to every row of the group.
    Members stay equal on the other components, so every state equals the
    plain per-row result float for float.  The first k1 is also evaluated on
    each group's last row; GeometryError if it differs from the
    representative's, i.e. if f reads a dimension it declares invariant.
    """
    if tau <= 0:
        raise GeometryError("tau must be positive")
    if substeps < 1:
        raise GeometryError("substeps must be >= 1")
    x = np.array(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    h = tau / substeps
    path = np.empty((substeps + 1,) + x.shape)
    path[0] = x
    rep, group = x, None
    if f.invariant_dims and x.ndim == 2:
        first, last, rows = _group_rows(np.delete(x, f.invariant_dims, axis=1))
        if len(first) < len(x):
            rep, group = x[first], rows
    for k in range(1, substeps + 1):
        k1 = f(rep, u)
        if k == 1 and group is not None and not np.array_equal(
            f(x[last], u), k1, equal_nan=True
        ):
            raise GeometryError(f"vector field '{f.name}' reads a dimension it declares invariant")
        k2 = f(rep + 0.5 * h * k1, u)
        k3 = f(rep + 0.5 * h * k2, u)
        k4 = f(rep + h * k3, u)
        step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if group is None:
            x = rep = x + step
        else:
            x = x + step[group]
            rep = rep + step
        path[k] = x
    return path


def integrate(f, x0, u, tau, substeps=SUBSTEPS):
    """RK4 endpoint of integrate_path; raises NonFinite if it blew up."""
    x = integrate_path(f, x0, u, tau, substeps)[-1]
    if not np.all(np.isfinite(x)):
        raise NonFinite("integration produced non-finite state")
    return x


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _nonneg_matmul(x, y):
    """x @ y for non-negative x and y, reading inf * 0 as 0 (not nan)."""
    out = np.where(np.isinf(x), 0.0, x) @ np.where(np.isinf(y), 0.0, y)
    out[(np.isinf(x) @ (y > 0)) | ((x > 0) @ np.isinf(y))] = np.inf
    return out


def growth_factor(vf: VectorField, tau: float) -> np.ndarray:
    """An entrywise upper bound on exp(A) for the float matrix A = L * tau.

    A is non-negative, so every Taylor term T_k = A^k / k! is too and the
    series has no cancellation.  Terms are added with the exact rounding
    error of each addition carried along, until a bound on the rest of the
    series is below an ulp of every entry of the sum.  Once k + 1 >= 2 a_i,
    with a_i the largest row sum of A over the rows that row i reaches, row
    i of the rest is at most 2 T_k P, P being the reachability pattern of A.
    To the sum come that bound and a bound on the rounding of the terms,
    and where either is non-zero the entry is rounded up by one more ulp.
    The rounding bounds are relative, so they hold while no term underflows.

    For nilpotent L the series ends and the result is exact whenever its
    sums are; for the bicycle it is I + L * tau bit for bit.  An entry
    whose value overflows is inf.
    """
    A = vf.growth_matrix * tau
    if not np.all(A >= 0):
        raise GeometryError("growth matrix times tau must be non-negative")
    n = len(A)
    reach = np.eye(n, dtype=bool) | (A > 0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    a = np.where(reach, A.sum(axis=1), 0.0).max(axis=1, initial=0.0)[:, None]
    P = reach.astype(float)
    total, carry, lost, term_err = np.eye(n), np.zeros((n, n)), np.zeros((n, n)), 0.0
    term, k = A, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            spread = _nonneg_matmul(term, P)
            rest = np.where(spread == 0, 0.0, np.where(k + 1 >= 2 * a, 2 * spread, np.inf))
            if np.all((rest <= _UNIT_ROUNDOFF * total) | np.isinf(total)):
                break
            new = total + term
            back = new - total
            err = np.where(np.isinf(new), 0.0, (total - (new - back)) + (term - back))
            carry, lost = carry + err, lost + np.abs(err)
            if k > 1:
                term_err = term_err + ((k - 1) * _UNIT_ROUNDOFF) * term
            total, k = new, k + 1
            term = _nonneg_matmul(term, A / k)
        # lost bounds the rounding of carry's own sum; the 2^-20 covers that
        # of the margin's arithmetic (both are second order).
        margin = rest + (n + 1) * term_err + (k + 2) * _UNIT_ROUNDOFF * lost
        out = total + (carry + margin * (1.0 + 2.0**-20))
    return np.where(margin > 0, np.nextafter(out, np.inf), out)


def image_radius(vf: VectorField, radius, tau: float) -> np.ndarray:
    """Radius of the image of any box with the given radius: exp(L tau) * radius.

    Inflated by one ulp per component to preserve containment under
    floating-point rounding.
    """
    radius = np.asarray(radius, dtype=float)
    if np.any(radius < 0):
        raise GeometryError("radius must be non-negative")
    return np.nextafter(growth_factor(vf, tau) @ radius, np.inf)


def propagate_box(vf: VectorField, center, radius, u, tau, substeps=SUBSTEPS):
    """Sound image of the box center +- radius under the sampled flow.

    center may be a single state (n,) or an (N, n) batch of centers sharing
    one radius.  Returns (center', radius') with center' the RK4 endpoint of
    each center (non-finite rows are returned as they are) and radius' the
    image_radius.
    """
    new_radius = image_radius(vf, radius, tau)
    return integrate_path(vf, center, u, tau, substeps)[-1], new_radius
