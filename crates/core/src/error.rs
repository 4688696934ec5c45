//! [`EngineError`]: typed rejection of bad query requests.
//!
//! The original API validated user input with `assert!`/`expect` — fine
//! for a research harness, fatal for a serving deployment where one bad
//! request must not take down the worker. Everything a *caller* can get
//! wrong (an out-of-range accuracy contract, a predictor column the table
//! does not have, an expression over an unidentifiable UDF, a plan the
//! solver proves unsatisfiable under a strict policy) surfaces as a
//! variant here, through [`crate::engine::QueryEngine::submit`] and
//! [`crate::query::QuerySpec::try_new`]. Internal invariant violations
//! still panic: those are bugs, not requests.

use std::fmt;

/// Why a query request was rejected.
///
/// Returned by the fallible query surface ([`QuerySpec::try_new`],
/// [`QueryEngine::submit`]) instead of panicking on user input.
///
/// [`QuerySpec::try_new`]: crate::query::QuerySpec::try_new
/// [`QueryEngine::submit`]: crate::engine::QueryEngine::submit
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An accuracy-contract or cost-model field is out of range.
    InvalidSpec {
        /// Which field was rejected (`"alpha"`, `"rho"`, `"cost.retrieve"`, …).
        field: &'static str,
        /// The offending value.
        value: f64,
        /// The range the field must lie in.
        expected: &'static str,
    },
    /// The request names a predictor column the table does not have.
    UnknownColumn {
        /// The missing column.
        column: String,
        /// Every column the table does have, for the error message.
        available: Vec<String>,
    },
    /// The optimizer proved the constraints unsatisfiable and the request
    /// ran under [`InfeasiblePolicy::Error`] — the caller asked to be
    /// told rather than silently pay the evaluate-everything fallback.
    ///
    /// [`InfeasiblePolicy::Error`]: crate::request::InfeasiblePolicy::Error
    Infeasible {
        /// The strategy whose plan was infeasible.
        strategy: String,
    },
    /// A [`PredicateExpr`] cannot be served: it contains a UDF with no
    /// stable fingerprint (so the request has no cacheable identity) or a
    /// malformed evaluation cost.
    ///
    /// [`PredicateExpr`]: expred_udf::PredicateExpr
    BadExpression {
        /// What is wrong with the expression.
        reason: String,
    },
    /// Any other malformed request parameter (zero rounds, an empty
    /// label fraction, an auto-ranked predictor on an empty table, …).
    InvalidRequest {
        /// What is wrong with the request.
        reason: String,
    },
}

impl EngineError {
    /// [`EngineError::UnknownColumn`] for `column`, listing every column
    /// `table` does have.
    pub(crate) fn unknown_column(table: &expred_table::Table, column: &str) -> EngineError {
        EngineError::UnknownColumn {
            column: column.to_owned(),
            available: table
                .schema()
                .fields()
                .iter()
                .map(|f| f.name().to_owned())
                .collect(),
        }
    }

    /// Helper for range checks: errors unless `value` lies in the range
    /// described by `check`.
    pub(crate) fn expect_range(
        field: &'static str,
        value: f64,
        expected: &'static str,
        ok: bool,
    ) -> Result<(), EngineError> {
        if ok {
            Ok(())
        } else {
            Err(EngineError::InvalidSpec {
                field,
                value,
                expected,
            })
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidSpec {
                field,
                value,
                expected,
            } => write!(
                f,
                "invalid query spec: {field} = {value} (must be {expected})"
            ),
            EngineError::UnknownColumn { column, available } => write!(
                f,
                "unknown predictor column {column:?} (available: {})",
                available.join(", ")
            ),
            EngineError::Infeasible { strategy } => write!(
                f,
                "the {strategy} plan is infeasible under the requested contract \
                 (resubmit with InfeasiblePolicy::FallbackEvaluateAll to pay the \
                 evaluate-everything fallback instead)"
            ),
            EngineError::BadExpression { reason } => {
                write!(f, "bad predicate expression: {reason}")
            }
            EngineError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A predicate-DSL parse failure is a bad expression: the serving tier
/// parses `"predicate"` strings and `?` straight into the engine's error
/// space (and from there to a 400, never a panic).
impl From<expred_udf::ParseError> for EngineError {
    fn from(e: expred_udf::ParseError) -> Self {
        EngineError::BadExpression {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::InvalidSpec {
            field: "alpha",
            value: 1.5,
            expected: "in [0, 1]",
        };
        assert_eq!(
            e.to_string(),
            "invalid query spec: alpha = 1.5 (must be in [0, 1])"
        );
        let e = EngineError::UnknownColumn {
            column: "grade".into(),
            available: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("\"grade\""));
        assert!(e.to_string().contains("a, b"));
        assert!(EngineError::Infeasible {
            strategy: "intel_sample".into()
        }
        .to_string()
        .contains("infeasible"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&EngineError::BadExpression { reason: "x".into() });
    }

    #[test]
    fn parse_errors_convert_to_bad_expression() {
        let parse_err = expred_udf::parse_predicate("a and", &expred_udf::OracleRegistry::new())
            .expect_err("truncated predicate");
        let engine_err: EngineError = parse_err.into();
        match &engine_err {
            EngineError::BadExpression { reason } => {
                assert!(reason.contains("parse error"), "{reason}");
                assert!(reason.contains("byte 5"), "{reason}");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
