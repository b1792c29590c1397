"""Dense two-phase simplex for small maximization problems.

Game instances produce many small, dense and massively degenerate LPs
(hundreds of best-response rows through one vertex).  In floating point
that defeats index-based anti-cycling: Bland's lowest-index entering walks
the degenerate plateau for tens of thousands of pivots until roundoff
cycles the basis.  The solver instead enters on the most negative reduced
cost and runs the ratio test against a deterministically perturbed copy of
the rhs (making pivots strictly improving), while reading answers from the
exact rhs; rows are equilibrated to unit max-norm so tableau growth stays
bounded.  Tolerances: 1e-9 for pivots, 1e-6 for feasibility classification.

Set-up is array code (one C-contiguous row matrix, then masks and fancy
indexing), and so is the choice of ratio-test rows.  A degenerate game
LP's vertex can turn on the last bit of its rhs, so the lower-bound shift
stays one dot product per contiguous row (a matrix-vector product or a
strided row rounds differently) and objective rows are summed in row order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-6

# Ratio tests run on rhs + PERTURB_SCALE * u with u fixed pseudo-random in
# [0.5, 1.5): large enough to dominate pivot-arithmetic noise, far below
# any feasibility margin we classify on.
PERTURB_SCALE = 1e-7

RELATIONS = ("<=", ">=", "=")

# Columns appended after the variables: exact rhs, then perturbed rhs.
_TRUE = -2
_PERT = -1


@functools.lru_cache(maxsize=1)
def _draws(m: int) -> np.ndarray:
    """The first m PCG64(12345) draws on [0.5, 1.5), read-only.  They are prefix-stable,
    so LPs of up to 1024 rows slice _draws(1024), drawn on first use: drawing it
    at import would load numpy.random into every CLI start."""
    u = np.random.Generator(np.random.PCG64(12345)).uniform(0.5, 1.5, size=m)
    u.flags.writeable = False
    return u


@dataclass
class LinearProgram:
    """maximize objective @ x subject to linear constraints and variable bounds.

    constraints are (coefficients, relation, rhs) triples: a list or 1-D
    array, then '<=', '>=' or '='.  lower_bounds default to 0 and must be
    finite; upper_bounds entries may be None (unbounded above).
    """

    objective: list[float]
    constraints: list[tuple[list[float], str, float]] = field(default_factory=list)
    lower_bounds: list[float] | None = None
    upper_bounds: list[float | None] | None = None

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def check(self) -> None:
        n = self.num_vars
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != n:
                raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {n}")
            if rel not in RELATIONS:
                raise ValueError(f"bad relation {rel!r}")
        if self.lower_bounds is not None and len(self.lower_bounds) != n:
            raise ValueError("lower_bounds length mismatch")
        if self.upper_bounds is not None and len(self.upper_bounds) != n:
            raise ValueError("upper_bounds length mismatch")


@dataclass(frozen=True)
class LpSolution:
    status: str                      # optimal | infeasible | unbounded
    x: tuple[float, ...] | None = None
    objective: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]


def _subtract_rows(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """first - rows[0] - rows[1] - ... in row order (np.add.reduce may pair sums up)."""
    return np.subtract.reduce(np.vstack([first[None], rows]), axis=0)


def _simplex(tableau: np.ndarray, basis: list[int]) -> str:
    """Run the simplex loop to optimality; z-row is the last tableau row."""
    m = tableau.shape[0] - 1
    max_iter = 200 * (tableau.shape[0] + tableau.shape[1]) + 10_000
    for _ in range(max_iter):
        zrow = tableau[-1, :_TRUE]
        enter = int(np.argmin(zrow))
        if zrow[enter] >= -PIVOT_TOL:
            return "optimal"
        column = tableau[:m, enter]
        eligible = np.flatnonzero(column > PIVOT_TOL)
        if not eligible.size:
            return "unbounded"
        ratios = np.maximum(tableau[eligible, _PERT], 0.0) / column[eligible]
        # Ratio test on the perturbed rhs; ties are effectively impossible
        # there, so degenerate stalling cannot cycle.  Among tolerance-level
        # ties prefer the largest pivot element for numerical stability.
        best_ratio = None
        candidates: list[int] = []
        for i, ratio in zip(eligible.tolist(), ratios.tolist()):
            if best_ratio is None or ratio < best_ratio - PIVOT_TOL:
                best_ratio = ratio
                candidates = [i]
            elif ratio <= best_ratio + PIVOT_TOL:
                best_ratio = min(best_ratio, ratio)
                candidates.append(i)
        leave = max(candidates, key=lambda i: (column[i], -basis[i]))
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        # Absorb pivot-arithmetic drift in the perturbed column only, and
        # only below pivot tolerance: anything coarser would erase the
        # perturbation and reintroduce exactly the degeneracy it prevents.
        rhs = tableau[:m, _PERT]
        rhs[(rhs < 0.0) & (rhs > -PIVOT_TOL)] = 0.0
    raise RuntimeError("simplex iteration limit exceeded")


def _require_finite(name: str, values: np.ndarray) -> None:
    # NaN or inf input would pivot until the iteration limit.
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve a LinearProgram; classifies optimal / infeasible / unbounded."""
    problem.check()
    n = problem.num_vars
    c = np.asarray(problem.objective, dtype=float)
    lb = np.zeros(n) if problem.lower_bounds is None else np.asarray(problem.lower_bounds, dtype=float)
    if not np.all(np.isfinite(lb)):
        raise ValueError("lower bounds must be finite")

    # Shift to y = x - lb >= 0; fold finite upper bounds in as <= rows.
    rows = problem.constraints
    bounded = [j for j, ub in enumerate(problem.upper_bounds or ()) if ub is not None]
    m = len(rows) + len(bounded)
    A = np.array([np.asarray(a, dtype=float) for a, _, _ in rows] + list(np.eye(n)[bounded])).reshape(m, n)
    _require_finite("objective", c)
    _require_finite("constraint coefficients", A)
    b = np.array([float(rhs) - float(A[i] @ lb) for i, (_, _, rhs) in enumerate(rows)]
                 + [float(problem.upper_bounds[j]) - lb[j] for j in bounded])
    _require_finite("rhs and upper bounds", b)
    ge = np.array([rel == ">=" for _, rel, _ in rows] + [False] * len(bounded), dtype=bool)
    eq = np.array([rel == "=" for _, rel, _ in rows] + [False] * len(bounded), dtype=bool)

    # Equilibrate rows to unit max-norm: the game matrices mix big-M cells
    # with epsilon-scale ones, and unscaled rows let pivot growth swamp
    # both tolerances and the anti-degeneracy perturbation.
    scale = np.abs(A).max(axis=1)
    scaled = scale > 0.0
    A[scaled] /= scale[scaled, None]
    b[scaled] /= scale[scaled]

    # Orient every row to b >= 0 so artificials start feasible; >= rows with
    # zero rhs become <= rows so they take a slack basis, not an artificial.
    flip = (b < 0) | ((b == 0) & ge)
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    ge ^= flip & ~eq
    le = ~(ge | eq)
    num_le, num_ge = int(le.sum()), int(ge.sum())
    art0 = n + num_le + num_ge
    total = art0 + m - num_le

    # Columns: variables, slacks, surpluses, artificials, exact and perturbed rhs.
    tableau = np.zeros((m + 1, total + 2))
    tableau[:m, :n] = A
    tableau[:m, _TRUE] = b
    tableau[:m, _PERT] = b + PERTURB_SCALE * _draws(max(m, 1024))[:m]
    # A <= row starts on its slack, any other row on its artificial, in row order.
    basis_cols = np.where(le, n + np.cumsum(le) - 1, art0 + np.cumsum(~le) - 1)
    tableau[np.arange(m), basis_cols] = 1.0
    tableau[np.flatnonzero(ge), art0 - num_ge + np.arange(num_ge)] = -1.0
    basis = basis_cols.tolist()

    # Phase 1: maximize -(sum of artificials); price out basic artificials.
    if total > art0:
        tableau[-1, art0:total] = 1.0
        tableau[-1] = _subtract_rows(tableau[-1], tableau[:m][~le])
        status = _simplex(tableau, basis)
        if status != "optimal" or tableau[-1, _TRUE] < -FEAS_TOL:
            return LpSolution(status="infeasible")
        # Remove lingering artificials from the basis.
        for i in range(m):
            if basis[i] >= art0:
                nonzero = np.flatnonzero(np.abs(tableau[i, :art0]) > PIVOT_TOL)
                if nonzero.size:
                    _pivot(tableau, i, int(nonzero[0]))
                    basis[i] = int(nonzero[0])
        keep = [i for i in range(m) if basis[i] < art0]
        basis = [basis[i] for i in keep]
        m, total = len(basis), art0
        tableau = np.vstack([tableau[keep][:, np.r_[:art0, _TRUE:0]], np.zeros(art0 + 2)])

    # Phase 2: restore the real objective row, adding the priced rows in
    # row order (a - (-p) is exactly a + p).
    cc = np.concatenate([c, np.zeros(total - n)])
    tableau[-1, :total] = -cc  # the z-row is all zeros here
    coef = cc[basis]
    priced = np.flatnonzero(np.abs(coef) > 0.0)
    tableau[-1] = _subtract_rows(tableau[-1], -coef[priced, None] * tableau[priced])
    status = _simplex(tableau, basis)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    y = np.zeros(total)
    y[basis] = np.where(tableau[:m, _TRUE] < 0.0, 0.0, tableau[:m, _TRUE])  # max(v, 0.0), keeping -0.0
    x = y[:n] + lb
    return LpSolution(status="optimal", x=tuple(x.tolist()), objective=float(c @ x))
