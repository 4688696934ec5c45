//! Query-level specifications.

use crate::error::EngineError;
use expred_udf::CostModel;

/// The user-facing contract of an approximate UDF-selection query:
/// `SELECT * FROM R WHERE f(...) = 1` with accuracy bounds (paper §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Precision lower bound `α ∈ [0, 1]`.
    pub alpha: f64,
    /// Recall lower bound `β ∈ [0, 1]`.
    pub beta: f64,
    /// Satisfaction probability `ρ ∈ [0, 1)`: both constraints must hold
    /// with at least this probability.
    pub rho: f64,
    /// Retrieval/evaluation costs `(o_r, o_e)`.
    pub cost: CostModel,
}

impl QuerySpec {
    /// The paper's default experimental setting:
    /// `α = β = ρ = 0.8`, `o_r = 1`, `o_e = 3` (§6.1).
    pub fn paper_default() -> Self {
        Self {
            alpha: 0.8,
            beta: 0.8,
            rho: 0.8,
            cost: CostModel::PAPER_DEFAULT,
        }
    }

    /// Builds a spec, validating every range — the fallible constructor
    /// the serving surface uses ([`crate::request::QueryRequest`] /
    /// [`crate::engine::QueryEngine::submit`]).
    pub fn try_new(alpha: f64, beta: f64, rho: f64, cost: CostModel) -> Result<Self, EngineError> {
        let spec = Self {
            alpha,
            beta,
            rho,
            cost,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Re-checks this spec's ranges (the fields are public, so a struct
    /// literal can bypass [`QuerySpec::try_new`]; the engine re-validates
    /// at submit time).
    pub fn validate(&self) -> Result<(), EngineError> {
        EngineError::expect_range(
            "alpha",
            self.alpha,
            "in [0, 1]",
            (0.0..=1.0).contains(&self.alpha),
        )?;
        EngineError::expect_range(
            "beta",
            self.beta,
            "in [0, 1]",
            (0.0..=1.0).contains(&self.beta),
        )?;
        EngineError::expect_range("rho", self.rho, "in [0, 1)", (0.0..1.0).contains(&self.rho))?;
        validate_cost_model(&self.cost)
    }

    /// Builds a spec, validating ranges.
    ///
    /// **Deprecated (panicking variant):** panics on out-of-range input.
    /// New code should use [`QuerySpec::try_new`], which reports the
    /// offending field as a typed [`EngineError`] instead.
    pub fn new(alpha: f64, beta: f64, rho: f64, cost: CostModel) -> Self {
        Self::try_new(alpha, beta, rho, cost).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The browsing scenario (§2): perfect precision, bounded recall.
    ///
    /// **Deprecated (panicking variant):** panics on out-of-range input;
    /// prefer `QuerySpec::try_new(1.0, beta, rho, cost)`.
    pub fn browsing(beta: f64, rho: f64, cost: CostModel) -> Self {
        Self::new(1.0, beta, rho, cost)
    }
}

/// Validates a cost model's ranges — shared by every surface that
/// accepts one ([`QuerySpec::validate`], expression scans), so the
/// contract cannot silently diverge between them.
pub(crate) fn validate_cost_model(cost: &CostModel) -> Result<(), EngineError> {
    EngineError::expect_range(
        "cost.retrieve",
        cost.retrieve,
        "finite and >= 0",
        cost.retrieve.is_finite() && cost.retrieve >= 0.0,
    )?;
    EngineError::expect_range(
        "cost.evaluate",
        cost.evaluate,
        "finite and >= 0",
        cost.evaluate.is_finite() && cost.evaluate >= 0.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let q = QuerySpec::paper_default();
        assert_eq!(q.alpha, 0.8);
        assert_eq!(q.beta, 0.8);
        assert_eq!(q.rho, 0.8);
        assert_eq!(q.cost.retrieve, 1.0);
        assert_eq!(q.cost.evaluate, 3.0);
    }

    #[test]
    fn browsing_has_full_precision() {
        let q = QuerySpec::browsing(0.7, 0.9, CostModel::PAPER_DEFAULT);
        assert_eq!(q.alpha, 1.0);
        assert_eq!(q.beta, 0.7);
    }

    #[test]
    #[should_panic]
    fn rho_one_rejected() {
        QuerySpec::new(0.5, 0.5, 1.0, CostModel::PAPER_DEFAULT);
    }

    #[test]
    #[should_panic]
    fn alpha_out_of_range_rejected() {
        QuerySpec::new(1.5, 0.5, 0.5, CostModel::PAPER_DEFAULT);
    }

    #[test]
    fn try_new_reports_the_offending_field() {
        let cost = CostModel::PAPER_DEFAULT;
        assert!(QuerySpec::try_new(0.8, 0.8, 0.8, cost).is_ok());
        for (a, b, r, field) in [
            (1.5, 0.5, 0.5, "alpha"),
            (-0.1, 0.5, 0.5, "alpha"),
            (0.5, 2.0, 0.5, "beta"),
            (0.5, 0.5, 1.0, "rho"),
        ] {
            match QuerySpec::try_new(a, b, r, cost) {
                Err(EngineError::InvalidSpec { field: got, .. }) => assert_eq!(got, field),
                other => panic!("expected InvalidSpec for {field}, got {other:?}"),
            }
        }
        let bad_cost = CostModel {
            retrieve: -1.0,
            evaluate: 3.0,
        };
        assert!(matches!(
            QuerySpec::try_new(0.5, 0.5, 0.5, bad_cost),
            Err(EngineError::InvalidSpec {
                field: "cost.retrieve",
                ..
            })
        ));
        // The panicking constructor is a thin wrapper over try_new.
        assert_eq!(
            QuerySpec::new(0.8, 0.7, 0.6, cost),
            QuerySpec::try_new(0.8, 0.7, 0.6, cost).unwrap()
        );
    }

    #[test]
    fn validate_catches_struct_literals() {
        let spec = QuerySpec {
            alpha: f64::NAN,
            beta: 0.5,
            rho: 0.5,
            cost: CostModel::PAPER_DEFAULT,
        };
        assert!(spec.validate().is_err());
        assert!(QuerySpec::paper_default().validate().is_ok());
    }
}
