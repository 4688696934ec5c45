//! Remote UDF wire: the predicate's expensive call as a TCP round trip.
//!
//! The paper bills `o_e` once per evaluation and treats the predicate
//! as a black box, so how the call travels is not part of the
//! algorithm. This crate keeps just enough wire for the benchmark's two
//! `remote.*` probes to time it: a healthy server, one client and one
//! [`RemoteUdf`]. No request, example or experiment reaches it. It is
//! deleted once the benchmark stops probing it.
//!
//! Layout:
//!
//! * [`proto`] — the length-prefixed wire protocol (requests carry a
//!   client-chosen id that the response echoes);
//! * [`server`] — [`UdfServer`], which answers named oracles over that
//!   protocol, each connection's requests in order;
//! * [`client`] — [`RemoteClient`]: one lazily dialed connection that
//!   pipelines a batch of probes and reads the answers in send order.
//!   A failure drops the connection and the next call redials; nothing
//!   is retried;
//! * [`udf`] — [`RemoteUdf`], the `BooleanUdf` adapter, with a
//!   typed-error batch surface (`try_evaluate_batch`).

pub mod client;
pub mod proto;
pub mod server;
pub mod udf;

pub use client::{ClientConfig, RemoteClient, RemoteError};
pub use server::{FaultPlan, OracleMap, UdfServer};
pub use udf::RemoteUdf;
