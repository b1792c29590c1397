"""Dense two-phase simplex for small maximization problems.

Game instances produce many small, dense and massively degenerate LPs
(hundreds of best-response rows through one vertex).  In floating point
that defeats index-based anti-cycling: Bland's lowest-index entering walks
the degenerate plateau for tens of thousands of pivots until roundoff
cycles the basis.  The solver instead enters on the most negative reduced
cost and runs the ratio test against a deterministically perturbed copy of
the rhs (making pivots strictly improving); rows are equilibrated to unit
max-norm so tableau growth stays bounded.  The optimal basis of the
perturbed problem can leave a basic variable of the exact one negative,
so dual simplex pivots on the exact rhs follow, and the answer is then
solved from the original rows for the final basis rather than read from
the tableau, whose rhs column carries the pivots' roundoff.  Tolerances:
1e-9 for pivots, 1e-6 for feasibility classification.

An optimal answer keeps its final phase-2 tableau, so `add_rows` can
append `rows @ x >= 0` cuts and re-solve warm: the new rows are written in
the current basis on slacks that enter it, and the same dual pivots
restore feasibility while the basis stays optimal (the cutting-plane
re-solve of the dual simplex method; Chvatal, *Linear Programming*, 1983).

Constraints come as one ConstraintBlock of arrays, so set-up is array
code (one matrix, then masks and fancy indexing), and so is the choice of
ratio-test rows.  Variables have finite lower bounds and no upper bounds;
a caller states an upper bound as a `<=` row.  Objective rows are summed
in row order, so an answer does not depend on how numpy pairs sums.
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


@dataclass(frozen=True)
class ConstraintBlock:
    """Constraint rows as arrays: matrix[i] @ x  relations[i]  rhs[i]."""

    matrix: np.ndarray     # m x n
    relations: np.ndarray  # m relation strings
    rhs: np.ndarray        # m

    def __len__(self) -> int:
        return self.matrix.shape[0]


@dataclass
class LinearProgram:
    """maximize objective @ x subject to `constraints` and x >= lower_bounds (default 0, finite)."""

    objective: list[float]
    constraints: ConstraintBlock
    lower_bounds: list[float] | None = None

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class Tableau:
    """An optimal LP's final phase-2 tableau and basis, kept for add_rows.

    `standard` and `rhs` hold its rows in standard form (shifted by the
    lower bounds, equilibrated and oriented), one per basic variable and
    untouched by pivoting, to solve answers from.
    """

    tableau: np.ndarray
    basis: list[int]
    standard: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray
    lower_bounds: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str                      # optimal | infeasible | unbounded
    x: tuple[float, ...] | None = None
    objective: float | None = None
    tableau: Tableau | None = field(default=None, repr=False, compare=False)  # when optimal

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
        enter = int(zrow.argmin())
        if zrow[enter] >= -PIVOT_TOL:
            return "optimal"
        column = tableau[:m, enter]
        eligible = (column > PIVOT_TOL).nonzero()[0]
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
        leave = candidates[0] if len(candidates) == 1 else max(candidates, key=lambda i: (column[i], -basis[i]))
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        # Absorb pivot-arithmetic drift in the perturbed column only, and
        # only below pivot tolerance: anything coarser would erase the
        # perturbation and reintroduce exactly the degeneracy it prevents.
        rhs = tableau[:m, _PERT]
        np.maximum(rhs, 0.0, out=rhs, where=rhs > -PIVOT_TOL)
    raise RuntimeError("simplex iteration limit exceeded")


def _restore_exact_feasibility(tableau: np.ndarray, basis: list[int]) -> bool:
    """Dual simplex pivots on the exact rhs after an optimal perturbed solve.

    The final basis is feasible for the perturbed rhs, but the exact rhs
    can leave a basic variable negative by far more than roundoff (1.6e-5
    seen on a game LP), and clamping it to zero would break the rows it
    balances.  Each pivot takes the most negative exact value out of the
    basis and keeps every reduced cost non-negative, so the basis stays
    optimal.  It returns True when none is below -PIVOT_TOL, and False when
    no column can enter (a Farkas row: infeasible, or roundoff) or the pivot
    limit is hit; a cold solve leaves that to the caller's checks.
    """
    m = tableau.shape[0] - 1
    for _ in range(m + 100):
        rhs = tableau[:m, _TRUE]
        leave = int(rhs.argmin())
        if rhs[leave] >= -PIVOT_TOL:
            return True
        row = tableau[leave, :_TRUE]
        eligible = (row < -PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return False
        ratios = tableau[-1, eligible] / -row[eligible]
        # Among tolerance-level ties prefer the largest pivot element.
        tied = eligible[ratios <= ratios.min() + PIVOT_TOL]
        enter = int(tied[row[tied].argmin()])
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    return False


def _basic_values(standard: np.ndarray, rhs: np.ndarray, basis: list[int], pivoted: np.ndarray) -> np.ndarray:
    """The basic variables' values, solved from the original rows for the final basis.

    Pivoting roundoff accumulates in the tableau's rhs column (3.5e-5 on
    the sum-to-one row of one game LP), so the answer is read from the
    standard-form rows instead, or from the tableau if that basis matrix is
    singular.  Negative values, from roundoff, become zero.
    """
    try:
        values = np.linalg.solve(standard[:, basis], rhs)
    except np.linalg.LinAlgError:
        values = pivoted
    return np.where(values < 0.0, 0.0, values)  # max(v, 0.0), keeping -0.0


def _require_finite(name: str, values: np.ndarray) -> None:
    # NaN or inf input would pivot until the iteration limit.
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve a LinearProgram; classifies optimal / infeasible / unbounded."""
    block, n = problem.constraints, problem.num_vars
    if block.matrix.ndim != 2 or block.matrix.shape[1] != n or len(block.rhs) != len(block):
        raise ValueError(f"constraint block of shape {block.matrix.shape} and {len(block.rhs)} "
                         f"rhs entries does not fit {n} variables")
    rel = block.relations
    if len(rel) != len(block) or not ((rel == "<=") | (rel == ">=") | (rel == "=")).all():
        raise ValueError(f"bad relations {rel!r}")
    if problem.lower_bounds is not None and len(problem.lower_bounds) != n:
        raise ValueError("lower_bounds length mismatch")
    c = np.ascontiguousarray(problem.objective, dtype=float)  # a strided c rounds c @ x differently
    lb = np.zeros(n) if problem.lower_bounds is None else np.asarray(problem.lower_bounds, dtype=float)
    if not np.isfinite(lb).all():
        raise ValueError("lower bounds must be finite")

    # Shift to y = x - lb >= 0.
    A = np.array(block.matrix, dtype=float)
    m = A.shape[0]
    _require_finite("objective", c)
    _require_finite("constraint coefficients", A)
    b = np.asarray(block.rhs, dtype=float) - A @ lb
    _require_finite("rhs", b)
    ge, eq = rel == ">=", rel == "="

    # Equilibrate rows to unit max-norm: the game matrices mix big-M cells
    # with epsilon-scale ones, and unscaled rows let pivot growth swamp
    # both tolerances and the anti-degeneracy perturbation.
    scale = np.abs(A).max(axis=1)
    scale[scale == 0.0] = 1.0
    A /= scale[:, None]
    b /= scale

    # Orient every row to b >= 0 so artificials start feasible; >= rows with
    # zero rhs become <= rows so they take a slack basis, not an artificial.
    flip = (b < 0) | ((b == 0) & ge)
    sign = np.where(flip, -1.0, 1.0)
    A *= sign[:, None]
    b *= sign
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
    tableau[ge.nonzero()[0], art0 - num_ge + np.arange(num_ge)] = -1.0
    basis = basis_cols.tolist()
    # The rows in standard form, untouched by pivoting, to read answers from.
    standard, rhs, keep = tableau[:m, :art0].copy(), b, slice(None)

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
                nonzero = (np.abs(tableau[i, :art0]) > PIVOT_TOL).nonzero()[0]
                if nonzero.size:
                    _pivot(tableau, i, int(nonzero[0]))
                    basis[i] = int(nonzero[0])
        keep = [i for i in range(m) if basis[i] < art0]
        basis = [basis[i] for i in keep]
        m, total = len(basis), art0
        tableau = np.vstack([np.hstack([tableau[keep, :art0], tableau[keep, _TRUE:]]), np.zeros(art0 + 2)])

    # Phase 2: restore the real objective row, adding the priced rows in
    # row order (a - (-p) is exactly a + p).
    cc = np.concatenate([c, np.zeros(total - n)])
    tableau[-1, :total] = -cc  # the z-row is all zeros here
    coef = cc[basis]
    priced = (coef != 0.0).nonzero()[0]
    tableau[-1] = _subtract_rows(tableau[-1], -coef[priced, None] * tableau[priced])
    status = _simplex(tableau, basis)
    if status == "unbounded":
        return LpSolution(status="unbounded")
    _restore_exact_feasibility(tableau, basis)
    return _answer(Tableau(tableau, basis, standard[keep], rhs[keep], c, lb))


def _answer(kept: Tableau) -> LpSolution:
    """The optimal answer of a final tableau, solved from its original rows."""
    basis, n = kept.basis, len(kept.objective)
    y = np.zeros(kept.tableau.shape[1] - 2)
    y[basis] = _basic_values(kept.standard, kept.rhs, basis, kept.tableau[:-1, _TRUE])
    x = y[:n] + kept.lower_bounds
    return LpSolution(status="optimal", x=tuple(x.tolist()), objective=float(kept.objective @ x), tableau=kept)


def add_rows(solved: LpSolution, rows: np.ndarray) -> LpSolution | None:
    """Append the rows `rows @ x >= 0` to the LP `solved` answers, and re-solve it warm.

    Each row is equilibrated as solve_lp does, written as -a @ y + s = a @ lb
    on a new slack s (its value at the current answer, negative where the
    row is violated) and expressed in the current basis, which s joins.
    Dual pivots on the exact rhs then restore feasibility.  Returns None
    when they leave a value below -PIVOT_TOL, which may be an infeasible LP
    or roundoff; solve_lp decides that LP cold.
    """
    kept = solved.tableau
    rows = np.asarray(rows, dtype=float)
    _require_finite("constraint coefficients", rows)
    (k, n), m = rows.shape, len(kept.basis)
    if n != len(kept.objective):
        raise ValueError(f"rows of shape {rows.shape} do not fit {len(kept.objective)} variables")
    total = kept.tableau.shape[1] - 2
    scale = np.abs(rows).max(axis=1)
    scale[scale == 0.0] = 1.0
    a = rows / scale[:, None]

    # The new rows in standard form, over the old columns, the new slacks and
    # both rhs columns; the z-row is unchanged, since every slack costs 0.
    new = np.zeros((k, total + k + 2))
    new[:, :n] = -a
    new[np.arange(k), total + np.arange(k)] = 1.0
    new[:, _TRUE] = new[:, _PERT] = a @ kept.lower_bounds
    tableau = np.zeros((m + k + 1, total + k + 2))
    tableau[np.r_[:m, -1], :total] = kept.tableau[:, :total]
    tableau[np.r_[:m, -1], _TRUE:] = kept.tableau[:, _TRUE:]
    tableau[m:-1] = new - new[:, kept.basis] @ tableau[:m]
    basis = kept.basis + list(range(total, total + k))
    if not _restore_exact_feasibility(tableau, basis):
        return None
    standard = np.zeros((m + k, total + k))
    standard[:m, :total] = kept.standard
    standard[m:] = new[:, :_TRUE]
    rhs = np.concatenate([kept.rhs, new[:, _TRUE]])
    return _answer(Tableau(tableau, basis, standard, rhs, kept.objective, kept.lower_bounds))
