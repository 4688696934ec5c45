//! A dense two-phase simplex LP solver: the test oracle.
//!
//! It shares no code with `expred_solver`'s plan-LP solve, so the property
//! tests hold that solve to an *independent* reference on randomized
//! instances. No production path runs it. Test targets include this file
//! as a module, each using a subset of it.
//!
//! Scope: minimize `c·x` subject to `a_i · x {≤,≥,=} b_i` and `x ≥ 0`.
//! Callers encode upper bounds and ordering constraints as rows. Dense
//! tableau with Bland's anti-cycling rule — `O(m·n)` per pivot, adequate
//! for the tens of groups the oracle checks.
#![allow(dead_code)]

use expred_solver::ChoiceLp;

/// LinearProg 3.4 over raw group statistics (the Problem-2 instantiation),
/// with variables ordered `R_0..R_{k-1}, E_0..E_{k-1}`.
pub fn paper_lp(
    sizes: &[f64],
    sels: &[f64],
    alpha: f64,
    cost_retrieve: f64,
    cost_evaluate: f64,
    recall_target: f64,
    precision_target: f64,
) -> LinearProgram {
    let k = sizes.len();
    let mut objective = vec![0.0; 2 * k];
    let mut recall_row = vec![0.0; 2 * k];
    let mut prec_row = vec![0.0; 2 * k];
    let mut constraints = Vec::with_capacity(2 + 2 * k);
    for (a, (&t, &s)) in sizes.iter().zip(sels).enumerate() {
        objective[a] = t * cost_retrieve;
        objective[k + a] = t * cost_evaluate;
        recall_row[a] = t * s;
        prec_row[a] = t * s * (1.0 - alpha) - alpha * t * (1.0 - s);
        prec_row[k + a] = alpha * t * (1.0 - s);
        // R_a <= 1 and E_a - R_a <= 0.
        let mut row = vec![0.0; 2 * k];
        row[a] = 1.0;
        constraints.push(Constraint {
            coeffs: row.clone(),
            relation: Relation::Le,
            rhs: 1.0,
        });
        row[a] = -1.0;
        row[k + a] = 1.0;
        constraints.push(Constraint {
            coeffs: row,
            relation: Relation::Le,
            rhs: 0.0,
        });
    }
    constraints.push(Constraint {
        coeffs: recall_row,
        relation: Relation::Ge,
        rhs: recall_target,
    });
    constraints.push(Constraint {
        coeffs: prec_row,
        relation: Relation::Ge,
        rhs: precision_target,
    });
    LinearProgram::new(objective, constraints)
}

/// A [`ChoiceLp`] with one variable per action, in push order, and one
/// `Σ x ≤ 1` row per group.
pub fn choice_lp(lp: &ChoiceLp, recall_target: f64, precision_target: f64) -> LinearProgram {
    let mut objective = Vec::new();
    let mut recall_row = Vec::new();
    let mut prec_row = Vec::new();
    let mut groups = Vec::new();
    for (recall, actions) in lp.groups() {
        groups.push(objective.len()..objective.len() + actions.len());
        for action in actions {
            objective.push(action.cost);
            recall_row.push(recall);
            prec_row.push(action.precision);
        }
    }
    let n = objective.len();
    let mut constraints: Vec<Constraint> = groups
        .into_iter()
        .map(|vars| {
            let mut coeffs = vec![0.0; n];
            coeffs[vars].fill(1.0);
            Constraint {
                coeffs,
                relation: Relation::Le,
                rhs: 1.0,
            }
        })
        .collect();
    constraints.push(Constraint {
        coeffs: recall_row,
        relation: Relation::Ge,
        rhs: recall_target,
    });
    constraints.push(Constraint {
        coeffs: prec_row,
        relation: Relation::Ge,
        rhs: precision_target,
    });
    LinearProgram::new(objective, constraints)
}

/// Direction of one linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// One linear constraint `coeffs · x REL rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Coefficient per variable (dense, length = `num_vars`).
    pub coeffs: Vec<f64>,
    /// Constraint direction.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: minimize `objective · x` s.t. constraints, `x ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    /// Objective coefficients (minimization).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable assignment.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution exists.
    Optimal(LpSolution),
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

impl LinearProgram {
    /// Creates a program after validating dimensions.
    pub fn new(objective: Vec<f64>, constraints: Vec<Constraint>) -> Self {
        for (i, c) in constraints.iter().enumerate() {
            assert_eq!(
                c.coeffs.len(),
                objective.len(),
                "constraint {i} has wrong arity"
            );
        }
        Self {
            objective,
            constraints,
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Solves the program with the two-phase simplex method.
    pub fn solve(&self) -> LpOutcome {
        Simplex::new(self).solve()
    }

    /// Checks feasibility of a point against all constraints (within
    /// `tol`), ignoring the sign restriction on variables beyond `-tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

const EPS: f64 = 1e-9;

/// Dense tableau state for the two-phase method.
struct Simplex {
    /// tableau[r][c]; row 0..m are constraints, last column is RHS.
    tableau: Vec<Vec<f64>>,
    /// Basis variable per row.
    basis: Vec<usize>,
    /// Total structural + slack columns (excludes artificials).
    num_real: usize,
    /// Columns of artificial variables.
    artificial: Vec<usize>,
    /// Original problem.
    num_vars: usize,
    objective: Vec<f64>,
}

impl Simplex {
    fn new(lp: &LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.constraints.len();

        // Normalize rows to nonnegative RHS, then count slack columns.
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = lp
            .constraints
            .iter()
            .map(|c| (c.coeffs.clone(), c.relation, c.rhs))
            .collect();
        for (coeffs, rel, rhs) in &mut rows {
            if *rhs < 0.0 {
                for a in coeffs.iter_mut() {
                    *a = -*a;
                }
                *rhs = -*rhs;
                *rel = match *rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
        }
        let num_slack = rows
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Eq)
            .count();
        let num_real = n + num_slack;

        // Artificial variables for Ge and Eq rows.
        let num_art = rows
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Le)
            .count();
        let width = num_real + num_art + 1; // + RHS column

        let mut tableau = vec![vec![0.0; width]; m];
        let mut basis = vec![usize::MAX; m];
        let mut artificial = Vec::with_capacity(num_art);
        let mut slack_col = n;
        let mut art_col = num_real;
        for (r, (coeffs, rel, rhs)) in rows.iter().enumerate() {
            tableau[r][..n].copy_from_slice(coeffs);
            tableau[r][width - 1] = *rhs;
            match rel {
                Relation::Le => {
                    tableau[r][slack_col] = 1.0;
                    basis[r] = slack_col;
                    slack_col += 1;
                }
                Relation::Ge => {
                    tableau[r][slack_col] = -1.0; // surplus
                    slack_col += 1;
                    tableau[r][art_col] = 1.0;
                    basis[r] = art_col;
                    artificial.push(art_col);
                    art_col += 1;
                }
                Relation::Eq => {
                    tableau[r][art_col] = 1.0;
                    basis[r] = art_col;
                    artificial.push(art_col);
                    art_col += 1;
                }
            }
        }

        Self {
            tableau,
            basis,
            num_real,
            artificial,
            num_vars: n,
            objective: lp.objective.clone(),
        }
    }

    fn solve(mut self) -> LpOutcome {
        // Constraint-free program: x = 0 is optimal iff no objective
        // coefficient is negative (x >= 0 otherwise lets it run away).
        if self.tableau.is_empty() {
            if self.objective.iter().any(|&c| c < -EPS) {
                return LpOutcome::Unbounded;
            }
            return LpOutcome::Optimal(LpSolution {
                x: vec![0.0; self.num_vars],
                objective: 0.0,
            });
        }
        // ---- Phase 1: minimize the sum of artificials. ----
        if !self.artificial.is_empty() {
            let width = self.tableau[0].len();
            let mut cost = vec![0.0; width];
            for &a in &self.artificial {
                cost[a] = 1.0;
            }
            let mut z = self.reduced_cost_row(&cost);
            match self.pivot_loop(&mut z, width) {
                PivotResult::Optimal => {}
                PivotResult::Unbounded => {
                    // Phase 1 objective is bounded below by 0; cannot happen
                    // on well-formed input.
                    return LpOutcome::Infeasible;
                }
            }
            let phase1_value = -z[width - 1];
            if phase1_value > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Drive any artificial still in the basis out (degenerate zero
            // rows), then forbid artificial columns.
            for r in 0..self.tableau.len() {
                if self.artificial.contains(&self.basis[r]) {
                    // Find a non-artificial column with nonzero coefficient.
                    let col = (0..self.num_real).find(|&c| self.tableau[r][c].abs() > EPS);
                    if let Some(c) = col {
                        self.pivot(r, c);
                    }
                    // If none exists the row is all-zero: harmless.
                }
            }
        }

        // ---- Phase 2: original objective over real columns only. ----
        let width = self.tableau[0].len();
        let mut cost = vec![0.0; width];
        cost[..self.num_vars].copy_from_slice(&self.objective);
        let mut z = self.reduced_cost_row(&cost);
        match self.pivot_loop_restricted(&mut z, self.num_real, width) {
            PivotResult::Optimal => {}
            PivotResult::Unbounded => return LpOutcome::Unbounded,
        }

        // Extract solution.
        let mut x = vec![0.0; self.num_vars];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.num_vars {
                x[b] = self.tableau[r][width - 1];
            }
        }
        let objective = self
            .objective
            .iter()
            .zip(&x)
            .map(|(c, v)| c * v)
            .sum::<f64>();
        LpOutcome::Optimal(LpSolution { x, objective })
    }

    /// Builds the reduced-cost row `z_j - c_j` representation: we store the
    /// row as `c_j - Σ c_B B^{-1} A_j` in z[0..width-1] and the negated
    /// objective value in z[width-1].
    fn reduced_cost_row(&self, cost: &[f64]) -> Vec<f64> {
        let width = self.tableau[0].len();
        let mut z = cost.to_vec();
        z[width - 1] = 0.0;
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = cost[b];
            if cb != 0.0 {
                for (zc, tc) in z.iter_mut().zip(&self.tableau[r][..width]) {
                    *zc -= cb * tc;
                }
            }
        }
        z
    }

    fn pivot_loop(&mut self, z: &mut [f64], width: usize) -> PivotResult {
        self.pivot_loop_restricted(z, width - 1, width)
    }

    /// Pivots until optimal, considering only columns `< allowed_cols` as
    /// entering candidates (used in Phase 2 to exclude artificials).
    fn pivot_loop_restricted(
        &mut self,
        z: &mut [f64],
        allowed_cols: usize,
        width: usize,
    ) -> PivotResult {
        // Bland's rule: smallest-index entering column with negative
        // reduced cost; smallest-index leaving row on ties.
        loop {
            let entering = (0..allowed_cols).find(|&c| z[c] < -EPS);
            let Some(col) = entering else {
                return PivotResult::Optimal;
            };
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.tableau.len() {
                let a = self.tableau[r][col];
                if a > EPS {
                    let ratio = self.tableau[r][width - 1] / a;
                    let better = match leave {
                        None => true,
                        Some((lr, lv)) => {
                            ratio < lv - EPS || (ratio < lv + EPS && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leave = Some((r, ratio));
                    }
                }
            }
            let Some((row, _)) = leave else {
                return PivotResult::Unbounded;
            };
            self.pivot(row, col);
            // Update the reduced-cost row for the pivot.
            let factor = z[col];
            if factor != 0.0 {
                for (zc, tc) in z.iter_mut().zip(&self.tableau[row][..width]) {
                    *zc -= factor * tc;
                }
                z[col] = 0.0; // exact
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.tableau[0].len();
        let pivot_val = self.tableau[row][col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on ~zero element");
        for c in 0..width {
            self.tableau[row][c] /= pivot_val;
        }
        self.tableau[row][col] = 1.0;
        for r in 0..self.tableau.len() {
            if r != row {
                let factor = self.tableau[r][col];
                if factor != 0.0 {
                    for c in 0..width {
                        self.tableau[r][c] -= factor * self.tableau[row][c];
                    }
                    self.tableau[r][col] = 0.0;
                }
            }
        }
        self.basis[row] = col;
    }
}

enum PivotResult {
    Optimal,
    Unbounded,
}
