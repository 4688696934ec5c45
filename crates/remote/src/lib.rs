//! Fault-tolerant remote UDF backend.
//!
//! The paper's expensive predicates are, in production, rarely local
//! function calls: they are crowdsourcing tasks, model-serving
//! endpoints, entity-resolution services — things on the other side of
//! a network that stalls, drops, corrupts, and dies. This crate makes
//! the engine's UDF abstraction survive that, without changing what
//! the engine sees: a [`RemoteUdf`] is just a `BooleanUdf`, and the
//! proof obligation (enforced by the `tests/faults.rs` suite) is that
//! under *every* injected fault schedule it returns byte-identical
//! answers to a local oracle and bills the paper-model `o_e` exactly
//! once per row — retries and hedges are a wire-level ledger, never a
//! second bill.
//!
//! Layout:
//!
//! * [`proto`] — the length-prefixed TCP wire protocol (requests carry
//!   a client-chosen id echoed back, enabling pipelined out-of-order
//!   responses and hedge cancellation-by-deregistration);
//! * [`server`] — the bundled std-only oracle server (also built as
//!   the `expred-udf-server` binary) with a per-connection,
//!   deterministically seeded fault-injection layer;
//! * [`fault`] — the [`FaultPlan`] / [`FaultInjector`] knobs: fixed and
//!   ramped latency, jittered tails, probabilistic drops, wrong-length
//!   frames, mid-response disconnects, full blackouts;
//! * [`client`] — [`RemoteClient`]: connection pool, per-probe
//!   deadlines, bounded exponential-backoff retries, hedged requests
//!   after a p99-derived delay, and a per-endpoint circuit breaker;
//! * [`breaker`] — the closed → open → half-open state machine;
//! * [`udf`] — [`RemoteUdf`], the `BooleanUdf` adapter with an
//!   optional local fallback evaluator and a typed-error batch surface
//!   (`try_evaluate_batch`) that degrades to
//!   `EngineError::Unavailable` → HTTP 503 in the serving tier.

pub mod breaker;
pub mod client;
pub mod fault;
pub mod proto;
pub mod server;
pub mod udf;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientConfig, HedgeConfig, RemoteClient, RemoteError, RemoteStatsSnapshot};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, ResponseFate};
pub use server::{OracleMap, UdfServer};
pub use udf::RemoteUdf;
