"""Dense two-phase simplex for small maximization problems.

Game instances produce many small dense LPs (tens to a few hundred
variables) where determinism matters more than speed, so this is a plain
tableau implementation.  The game LPs are massively degenerate (hundreds
of best-response rows through one vertex), which in floating point defeats
index-based anti-cycling rules: Bland's lowest-index entering walks the
degenerate plateau for tens of thousands of pivots, amplifying roundoff
until the basis cycles.  The solver instead enters on the most negative
reduced cost and runs the ratio test against a deterministically perturbed
copy of the rhs (making pivots strictly improving), while reading answers
from the exact rhs; constraint rows are equilibrated to unit max-norm so
tableau growth stays bounded.  Tolerances: 1e-9 for pivots, 1e-6 for
feasibility classification.
"""

from __future__ import annotations

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


@dataclass
class LinearProgram:
    """maximize objective @ x subject to linear constraints and variable bounds.

    constraints are (coefficients, relation, rhs) triples with relation one
    of '<=', '>=', '='.  lower_bounds default to 0 and must be finite;
    upper_bounds entries may be None (unbounded above).
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
    tableau -= np.outer(factors, tableau[row])


def _simplex(tableau: np.ndarray, basis: list[int]) -> str:
    """Run the simplex loop to optimality; z-row is the last tableau row."""
    m = tableau.shape[0] - 1
    max_iter = 200 * (tableau.shape[0] + tableau.shape[1]) + 10_000
    for _ in range(max_iter):
        zrow = tableau[-1, :_TRUE]
        enter = int(np.argmin(zrow))
        if zrow[enter] >= -PIVOT_TOL:
            return "optimal"
        # Ratio test on the perturbed rhs; ties are effectively impossible
        # there, so degenerate stalling cannot cycle.  Among tolerance-level
        # ties prefer the largest pivot element for numerical stability.
        best_ratio = None
        candidates: list[int] = []
        for i in range(m):
            a = tableau[i, enter]
            if a > PIVOT_TOL:
                ratio = max(tableau[i, _PERT], 0.0) / a
                if best_ratio is None or ratio < best_ratio - PIVOT_TOL:
                    best_ratio = ratio
                    candidates = [i]
                elif ratio <= best_ratio + PIVOT_TOL:
                    best_ratio = min(best_ratio, ratio)
                    candidates.append(i)
        if not candidates:
            return "unbounded"
        leave = max(candidates, key=lambda i: (tableau[i, enter], -basis[i]))
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        # Absorb pivot-arithmetic drift in the perturbed column only, and
        # only below pivot tolerance: anything coarser would erase the
        # perturbation and reintroduce exactly the degeneracy it prevents.
        rhs = tableau[:m, _PERT]
        rhs[(rhs < 0.0) & (rhs > -PIVOT_TOL)] = 0.0
    raise RuntimeError("simplex iteration limit exceeded")


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve a LinearProgram; classifies optimal / infeasible / unbounded."""
    problem.check()
    n = problem.num_vars
    c = np.asarray(problem.objective, dtype=float)
    lb = np.zeros(n) if problem.lower_bounds is None else np.asarray(problem.lower_bounds, dtype=float)
    if not np.all(np.isfinite(lb)):
        raise ValueError("lower bounds must be finite")

    # Shift to y = x - lb >= 0; fold upper bounds in as extra rows.
    rows: list[np.ndarray] = []
    rels: list[str] = []
    rhs: list[float] = []
    for coeffs, rel, b in problem.constraints:
        a = np.asarray(coeffs, dtype=float)
        rows.append(a)
        rels.append(rel)
        rhs.append(float(b) - float(a @ lb))
    if problem.upper_bounds is not None:
        for j, ub in enumerate(problem.upper_bounds):
            if ub is None:
                continue
            a = np.zeros(n)
            a[j] = 1.0
            rows.append(a)
            rels.append("<=")
            rhs.append(float(ub) - lb[j])

    m = len(rows)
    A = np.vstack(rows) if m else np.zeros((0, n))
    b = np.asarray(rhs, dtype=float)

    # Equilibrate rows to unit max-norm: the game matrices mix big-M cells
    # with epsilon-scale ones, and unscaled rows let pivot growth swamp
    # both tolerances and the anti-degeneracy perturbation.
    for i in range(m):
        scale = np.max(np.abs(A[i]))
        if scale > 0.0:
            A[i] /= scale
            b[i] /= scale

    # Orient every row to b >= 0 so artificials start feasible; >= rows with
    # zero rhs become <= rows so they take a slack basis, not an artificial.
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    for i in range(m):
        if b[i] < 0 or (b[i] == 0 and rels[i] == ">="):
            A[i] = -A[i]
            b[i] = -b[i]
            rels[i] = flip[rels[i]]

    num_slack = sum(1 for r in rels if r == "<=")
    num_surplus = sum(1 for r in rels if r == ">=")
    num_art = sum(1 for r in rels if r in (">=", "="))
    total = n + num_slack + num_surplus + num_art
    slack0, surplus0, art0 = n, n + num_slack, n + num_slack + num_surplus

    pert = b + PERTURB_SCALE * np.random.Generator(np.random.PCG64(12345)).uniform(0.5, 1.5, size=m)

    tableau = np.zeros((m + 1, total + 2))
    basis: list[int] = []
    si = ti = ai = 0
    for i in range(m):
        tableau[i, :n] = A[i]
        tableau[i, _TRUE] = b[i]
        tableau[i, _PERT] = pert[i]
        if rels[i] == "<=":
            tableau[i, slack0 + si] = 1.0
            basis.append(slack0 + si)
            si += 1
        elif rels[i] == ">=":
            tableau[i, surplus0 + ti] = -1.0
            tableau[i, art0 + ai] = 1.0
            basis.append(art0 + ai)
            ti += 1
            ai += 1
        else:
            tableau[i, art0 + ai] = 1.0
            basis.append(art0 + ai)
            ai += 1

    # Phase 1: maximize -(sum of artificials); price out basic artificials.
    if num_art:
        tableau[-1, art0:art0 + num_art] = 1.0
        for i in range(m):
            if basis[i] >= art0:
                tableau[-1] -= tableau[i]
        status = _simplex(tableau, basis)
        if status != "optimal" or tableau[-1, _TRUE] < -FEAS_TOL:
            return LpSolution(status="infeasible")
        # Remove lingering artificials from the basis.
        for i in range(m):
            if basis[i] >= art0:
                piv = -1
                for j in range(art0):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        piv = j
                        break
                if piv >= 0:
                    _pivot(tableau, i, piv)
                    basis[i] = piv
        keep_rows = [i for i in range(m) if basis[i] < art0]
        kept = tableau[keep_rows] if keep_rows else np.zeros((0, tableau.shape[1]))
        tableau = np.hstack([kept[:, :art0], kept[:, _TRUE:]])
        basis = [basis[i] for i in keep_rows]
        zrow = np.zeros((1, tableau.shape[1]))
        tableau = np.vstack([tableau, zrow])
        m = len(basis)
        total = art0

    # Phase 2: restore the real objective row.
    cc = np.zeros(total)
    cc[:n] = c
    tableau[-1, :] = 0.0
    tableau[-1, :total] = -cc
    for i in range(m):
        if abs(cc[basis[i]]) > 0.0:
            tableau[-1] += cc[basis[i]] * tableau[i]
    status = _simplex(tableau, basis)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    y = np.zeros(total)
    for i in range(m):
        y[basis[i]] = max(tableau[i, _TRUE], 0.0)
    x = y[:n] + lb
    return LpSolution(status="optimal", x=tuple(x.tolist()), objective=float(c @ x))
