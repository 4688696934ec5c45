//! The serving tier: a std-only TCP HTTP/1.1 front-end over expred's
//! concurrent [`QueryEngine`].
//!
//! No external dependencies — the HTTP codec ([`http`]), the JSON wire
//! schema ([`api`], on top of [`expred_stats::json`]), and the client
//! ([`client`]) are all hand-rolled on `std::net`. The server composes
//! five small layers:
//!
//! * [`http`] — HTTP/1.1 parsing and serialization with keep-alive and
//!   `Content-Length` framing, byte-budgeted against hostile input.
//! * [`api`] — the JSON request/response schema: `/query` bodies become
//!   [`expred_core::QueryRequest`]s, [`expred_core::RunOutcome`]s become
//!   response bodies, and every [`expred_core::EngineError`] variant has
//!   a documented status code.
//! * [`tenant`] — tenant id → isolated engine session, lazily created
//!   and bounded; each tenant's tables are its own handles, LRU-bounded,
//!   over content the tenants share.
//! * [`gate`] — admission control: a lock-free bounded in-flight gate
//!   that sheds with `429` *before* any engine work happens.
//! * [`metrics`] — lock-free counters and log-bucketed latency
//!   histograms behind `GET /metrics` (exposition text) and
//!   `GET /metrics.json`.
//!
//! [`server`] ties them together (routes: `GET /health`, `GET /metrics`,
//! `GET /metrics.json`, `POST /query`); [`serve`] starts it:
//!
//! ```
//! use expred_serve::{serve, HttpClient, ServeConfig};
//!
//! let handle = serve("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = HttpClient::connect(handle.local_addr()).unwrap();
//! let body = r#"{"table":{"spec":"prosper","rows":200},"query":{"kind":"naive"}}"#;
//! let response = client.post("/query", body).unwrap();
//! assert_eq!(response.status, 200);
//! ```
//!
//! [`QueryEngine`]: expred_core::QueryEngine

pub mod api;
pub mod client;
pub mod gate;
pub mod http;
pub mod metrics;
pub mod server;
pub mod tenant;

pub use api::{ApiError, ApiQuery, TableKey};
pub use client::{ClientResponse, HttpClient};
pub use gate::{AdmissionGate, GatePass};
pub use http::{HttpError, HttpRequest, HttpResponse, Limits};
pub use metrics::{LatencyHistogram, MetricsContext, RouteMetrics, ServeMetrics};
pub use server::{serve, ServeConfig, ServerHandle};
pub use tenant::{EngineConfig, Generator, Tenant, TenantError, TenantRegistry};
