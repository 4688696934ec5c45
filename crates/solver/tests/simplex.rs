//! The simplex oracle's own examples: known optima, infeasibility,
//! unboundedness and degeneracy.

mod lp;

use lp::{Constraint, LinearProgram, LpOutcome, Relation};

fn c(coeffs: Vec<f64>, relation: Relation, rhs: f64) -> Constraint {
    Constraint {
        coeffs,
        relation,
        rhs,
    }
}

#[test]
fn simple_minimization() {
    // min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
    // Optimum at intersection: x=1.6, y=1.2, objective 2.8.
    let lp = LinearProgram::new(
        vec![1.0, 1.0],
        vec![
            c(vec![1.0, 2.0], Relation::Ge, 4.0),
            c(vec![3.0, 1.0], Relation::Ge, 6.0),
        ],
    );
    match lp.solve() {
        LpOutcome::Optimal(s) => {
            assert!((s.objective - 2.8).abs() < 1e-7, "obj={}", s.objective);
            assert!((s.x[0] - 1.6).abs() < 1e-7);
            assert!((s.x[1] - 1.2).abs() < 1e-7);
        }
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn maximization_via_negation() {
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => min -3x -2y.
    // Optimum x=4, y=0, value 12.
    let lp = LinearProgram::new(
        vec![-3.0, -2.0],
        vec![
            c(vec![1.0, 1.0], Relation::Le, 4.0),
            c(vec![1.0, 3.0], Relation::Le, 6.0),
        ],
    );
    match lp.solve() {
        LpOutcome::Optimal(s) => {
            assert!((s.objective + 12.0).abs() < 1e-7, "obj={}", s.objective);
        }
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn detects_infeasible() {
    // x >= 2 and x <= 1.
    let lp = LinearProgram::new(
        vec![1.0],
        vec![
            c(vec![1.0], Relation::Ge, 2.0),
            c(vec![1.0], Relation::Le, 1.0),
        ],
    );
    assert_eq!(lp.solve(), LpOutcome::Infeasible);
}

#[test]
fn detects_unbounded() {
    // min -x s.t. x >= 1 (x can grow without bound).
    let lp = LinearProgram::new(vec![-1.0], vec![c(vec![1.0], Relation::Ge, 1.0)]);
    assert_eq!(lp.solve(), LpOutcome::Unbounded);
}

#[test]
fn equality_constraints() {
    // min x + y s.t. x + y = 5, x - y = 1  => x=3, y=2.
    let lp = LinearProgram::new(
        vec![1.0, 1.0],
        vec![
            c(vec![1.0, 1.0], Relation::Eq, 5.0),
            c(vec![1.0, -1.0], Relation::Eq, 1.0),
        ],
    );
    match lp.solve() {
        LpOutcome::Optimal(s) => {
            assert!((s.x[0] - 3.0).abs() < 1e-7);
            assert!((s.x[1] - 2.0).abs() < 1e-7);
        }
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn negative_rhs_normalization() {
    // min x s.t. -x <= -3  (i.e. x >= 3).
    let lp = LinearProgram::new(vec![1.0], vec![c(vec![-1.0], Relation::Le, -3.0)]);
    match lp.solve() {
        LpOutcome::Optimal(s) => assert!((s.x[0] - 3.0).abs() < 1e-7),
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn degenerate_lp_terminates() {
    // Classic degeneracy: multiple constraints active at the optimum.
    let lp = LinearProgram::new(
        vec![-0.75, 150.0, -0.02, 6.0],
        vec![
            c(vec![0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0),
            c(vec![0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0),
            c(vec![0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0),
        ],
    );
    // Beale's cycling example: Bland's rule must terminate (optimum
    // -0.05 at x = (0.04, 0, 1, 0)).
    match lp.solve() {
        LpOutcome::Optimal(s) => {
            assert!((s.objective + 0.05).abs() < 1e-7, "obj={}", s.objective);
        }
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn feasibility_checker() {
    let lp = LinearProgram::new(vec![1.0, 1.0], vec![c(vec![1.0, 1.0], Relation::Ge, 1.0)]);
    assert!(lp.is_feasible(&[0.5, 0.6], 1e-9));
    assert!(!lp.is_feasible(&[0.2, 0.2], 1e-9));
    assert!(!lp.is_feasible(&[-0.5, 2.0], 1e-9));
    assert!(!lp.is_feasible(&[1.0], 1e-9));
}

#[test]
fn zero_constraint_lp() {
    // Unconstrained minimization of x over x >= 0: optimum 0.
    let lp = LinearProgram::new(vec![1.0], vec![]);
    match lp.solve() {
        LpOutcome::Optimal(s) => assert_eq!(s.objective, 0.0),
        other => panic!("expected optimal, got {other:?}"),
    }
}
