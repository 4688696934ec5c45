//! The serving tier's JSON wire schema: request bodies in,
//! [`RunOutcome`] bodies out, [`EngineError`] → HTTP status.
//!
//! A query request body names a table and a strategy:
//!
//! ```json
//! {
//!   "tenant": "alice",
//!   "table": {"spec": "prosper", "rows": 2000, "seed": 7},
//!   "query": {"kind": "naive", "alpha": 0.8, "beta": 0.8, "rho": 0.8},
//!   "seed": 42,
//!   "on_infeasible": "fallback"
//! }
//! ```
//!
//! `table.spec` picks a calibrated generator (`"prosper"` or `"lc"`),
//! resolved as the body is parsed; tenants share one key's content, and
//! each holds its own table over it, so they never share cache state even
//! on identical specs. `query.kind` selects
//! a [`Strategy`] of the engine's closed set; every kind accepts the accuracy-contract
//! fields `alpha`/`beta`/`rho` and a `cost` object, all defaulting to
//! the paper's `0.8` / `{o_r: 1, o_e: 3}`. Kind-specific fields are
//! documented on [`parse_query_body`]. Unknown fields anywhere are a
//! 400: a misspelled knob must not silently fall back to a default.
//!
//! A 200 body is the outcome, minus `compute_seconds` (a wall-clock
//! diagnostic that would break the serving contract that an HTTP answer
//! is byte-identical to a direct [`QueryEngine::submit`]), compact and
//! in this field order:
//!
//! ```json
//! {"tenant":"alice","returned":[3,17],"counts":{"retrieved":2000,
//!  "evaluated":512,"cache_hits":0,"reuse_hits":40},"cost":3536,
//!  "precision":0.93,"recall":0.91,"num_groups":7,"plan_feasible":true}
//! ```
//!
//! [`render_outcome`] streams it: the answer is still the bit plane the
//! pipeline filled, and [`JsonWriter::id_plane`] walks its words into one
//! buffer sized up front from the plane, a word of one-width ids at a
//! time. The buffer goes to the socket as the bytes it is, never checked
//! back into a `String`, so a 9.5 k-id answer costs one allocation and
//! ≈ 1.1 ns per id on a 2-vCPU Xeon — which matters because a
//! result-memo hit (a refcount bump on the shared outcome) does no other
//! work, and the request it answers is read off a
//! [`JsonReader`] with no tree. There
//! is deliberately no cache of rendered bodies beside the result memo: it
//! would hold tens of MB per tenant (sized at +91 % RSS on the steady-state
//! benchmark workload), need a size knob, and do nothing for requests
//! that never repeat.
//!
//! Every error body is `{"error": "<kind>", "detail": "<message>"}`.
//!
//! [`Strategy`]: expred_core::Strategy
//! [`QueryEngine::submit`]: expred_core::QueryEngine::submit

use crate::tenant::{generator, Generator};
use expred_core::optimize::CorrelationModel;
use expred_core::pipeline::{IntelSampleConfig, PredictorChoice, RunOutcome};
use expred_core::sampling::{SampleSizeRule, Sampling};
use expred_core::{EngineError, InfeasiblePolicy, QueryRequest, QuerySpec};
use expred_stats::json::{id_plane_len, JsonError, JsonReader, JsonWriter, Token};
use expred_table::RowSet;
use expred_udf::CostModel;
use std::borrow::Cow;
use std::num::NonZeroUsize;

/// A failed API call: the HTTP status to answer with, a stable
/// machine-readable kind, and a human-readable detail message.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable error kind (`"bad_request"`, `"unknown_column"`, …).
    pub kind: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl ApiError {
    /// A 400 with kind `bad_request`.
    pub fn bad_request(detail: impl Into<String>) -> Self {
        Self {
            status: 400,
            kind: "bad_request",
            detail: detail.into(),
        }
    }

    /// The error's JSON body.
    pub fn body(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("error").str(self.kind);
        w.key("detail").str(&self.detail).end_object();
        w.finish()
    }
}

/// The HTTP status each [`EngineError`] variant maps to.
///
/// * `InvalidSpec`, `BadExpression`, `InvalidRequest` → **400**: the
///   request itself is malformed.
/// * `UnknownColumn` → **404**: the request is well-formed but names a
///   column the table does not have.
/// * `Infeasible` → **422**: the request parsed and validated, but its
///   contract is unsatisfiable under the declared policy.
pub(crate) fn engine_error_status(error: &EngineError) -> u16 {
    match error {
        EngineError::InvalidSpec { .. } => 400,
        EngineError::BadExpression { .. } => 400,
        EngineError::InvalidRequest { .. } => 400,
        EngineError::UnknownColumn { .. } => 404,
        EngineError::Infeasible { .. } => 422,
    }
}

/// The stable `error` kind string for each [`EngineError`] variant.
pub(crate) fn engine_error_kind(error: &EngineError) -> &'static str {
    match error {
        EngineError::InvalidSpec { .. } => "invalid_spec",
        EngineError::BadExpression { .. } => "bad_expression",
        EngineError::InvalidRequest { .. } => "invalid_request",
        EngineError::UnknownColumn { .. } => "unknown_column",
        EngineError::Infeasible { .. } => "infeasible",
    }
}

impl From<EngineError> for ApiError {
    fn from(error: EngineError) -> Self {
        ApiError {
            status: engine_error_status(&error),
            kind: engine_error_kind(&error),
            detail: error.to_string(),
        }
    }
}

/// Which table a query targets: a calibrated generator plus size and
/// generation seed. Equal keys name one content, which tenants share;
/// each tenant's table over it has an identity of its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableKey {
    /// The generator, resolved from its wire name (`"prosper"` or
    /// `"lc"`) when the request is parsed.
    pub spec: Generator,
    /// Number of rows to generate.
    pub rows: usize,
    /// Generation seed.
    pub seed: u64,
}

/// One fully parsed `/query` call.
#[derive(Debug)]
pub struct ApiQuery {
    /// Tenant named in the body (the `X-Tenant` header, when present,
    /// wins over this).
    pub tenant: Option<String>,
    /// Which table to run over.
    pub table: TableKey,
    /// The engine request to submit.
    pub request: QueryRequest,
}

/// Parses a `/query` body. `max_rows` bounds `table.rows` (admission
/// control over memory, not just concurrency).
///
/// Per-kind fields of the `query` object (beyond
/// `alpha`/`beta`/`rho`/`cost`):
///
/// * `"naive"` — none.
/// * `"intel_sample"` — `predictor` (column name; omit for auto-ranking),
///   `label_fraction` (auto-ranking budget, default 0.01),
///   `sample_fraction` (default 0.05), `corr`
///   (`"independent"`/`"unknown"`, default independent).
/// * `"optimal"` — `predictor` (required).
/// * `"adaptive"` — `predictor` (required), `corr`: an `intel_sample`
///   config whose first sample is §4.3's search
///   ([`Sampling::Search`]).
/// * `"iterative"` — `predictor` (required), `corr`, `sample_fraction`,
///   `rounds` (default 2): an `intel_sample` config with §4.2's
///   estimate/exploit rounds ([`IntelSampleConfig::rounds`]).
/// * `"expr"` — `predicate` (required): a pypred-style boolean string
///   over the table's boolean columns, e.g.
///   `"udf_label and (vip or not flagged)"` (`not` binds tighter than
///   `and`, which binds tighter than `or`). The scan always runs the
///   session's selectivity-aware rewrite first — identical answers, a
///   smaller bill once the session's row tier holds answers for the
///   leaves. Parse failures are 400 `bad_expression`.
///
/// Work-multiplier fields are admission-controlled here, not just in
/// the engine: `rounds` ≤ [`MAX_ROUNDS`], and both fraction knobs must
/// lie in `(0, 1]` — anything past a bound is a 400, mirroring the
/// `max_rows` cap. Any other kind or `query` field is a 400 too; the
/// paper's ML baselines (`learning`, `multiple` and their `imputations`)
/// are not served, since they tune against ground truth.
///
/// The fields are read straight off a [`JsonReader`], with no tree. A
/// body that is not JSON is answered as such even when a field before the
/// fault is wrong too, and when a key repeats, its first value is the one
/// read (the rest are skipped unread).
pub fn parse_query_body(body: &[u8], max_rows: usize) -> Result<ApiQuery, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let mut reader = JsonReader::new(text);
    let mut read = read_body(&mut reader, max_rows);
    if !matches!(read, Err(Stop::Syntax(_))) {
        // Whatever the read left unread must be JSON too.
        if let Err(error) = reader.end() {
            read = Err(Stop::Syntax(error));
        }
    }
    read.map_err(|stop| match stop {
        Stop::Syntax(error) => ApiError::bad_request(format!("body is not valid JSON: {error}")),
        Stop::Field(error) => error,
    })
}

/// Why reading a request body stopped.
enum Stop {
    /// The text is not JSON.
    Syntax(JsonError),
    /// A field is wrong (the text past it is still to be checked).
    Field(ApiError),
}

impl From<JsonError> for Stop {
    fn from(error: JsonError) -> Self {
        Stop::Syntax(error)
    }
}

impl From<ApiError> for Stop {
    fn from(error: ApiError) -> Self {
        Stop::Field(error)
    }
}

fn bad_request(detail: impl Into<String>) -> Stop {
    Stop::Field(ApiError::bad_request(detail))
}

/// The keys of one request object: a repeat of a known field is skipped
/// unread, so the field's first value is the one that counts (the answer
/// [`JsonValue::get`](expred_stats::json::JsonValue::get) gives). Any
/// other key is passed on, and every caller rejects it at its first
/// occurrence.
struct Fields {
    known: &'static [&'static str],
    seen: u32,
}

impl Fields {
    fn of(known: &'static [&'static str]) -> Self {
        Self { known, seen: 0 }
    }

    /// The next key to act on, or `None` once the object closes.
    fn next<'a>(&mut self, reader: &mut JsonReader<'a>) -> Result<Option<Cow<'a, str>>, Stop> {
        while let Some(key) = reader.key()? {
            match self.known.iter().position(|known| key == *known) {
                Some(i) if self.seen & 1 << i != 0 => continue,
                Some(i) => self.seen |= 1 << i,
                None => {}
            }
            return Ok(Some(key));
        }
        Ok(None)
    }
}

/// Opens the object that must come next, or fails with `error`.
fn object(reader: &mut JsonReader<'_>, error: &str) -> Result<(), Stop> {
    match reader.next()? {
        Token::BeginObject => Ok(()),
        _ => Err(bad_request(error)),
    }
}

/// The string that must come next, or fails with `error`.
fn string<'a>(reader: &mut JsonReader<'a>, error: &str) -> Result<Cow<'a, str>, Stop> {
    match reader.next()? {
        Token::String(text) => Ok(text),
        _ => Err(bad_request(error)),
    }
}

/// The non-negative integer that must come next, or fails with `error`.
fn integer(reader: &mut JsonReader<'_>, error: &str) -> Result<u64, Stop> {
    reader.next()?.as_u64().ok_or_else(|| bad_request(error))
}

fn read_body(reader: &mut JsonReader<'_>, max_rows: usize) -> Result<ApiQuery, Stop> {
    object(reader, "body must be a JSON object")?;
    let mut tenant = None;
    let mut table = None;
    let mut query = None;
    let mut seed = 0u64;
    let mut policy = InfeasiblePolicy::FallbackEvaluateAll;
    let mut fields = Fields::of(&["tenant", "table", "query", "seed", "on_infeasible"]);
    while let Some(key) = fields.next(reader)? {
        match &*key {
            "tenant" => {
                tenant = Some(string(reader, "\"tenant\" must be a string")?.into_owned());
            }
            "table" => table = Some(read_table(reader, max_rows)?),
            "query" => {
                // The query's own fields are judged after every other
                // field's: a wrong one is kept, and the body read on.
                let depth = reader.depth();
                query = Some(match read_query(reader) {
                    Ok(fields) => Ok(fields),
                    Err(Stop::Field(error)) => {
                        reader.close_to(depth)?;
                        Err(error)
                    }
                    Err(syntax) => return Err(syntax),
                });
            }
            "seed" => seed = integer(reader, "\"seed\" must be a non-negative integer")?,
            "on_infeasible" => {
                policy = match reader.next()? {
                    Token::String(text) if text == "fallback" => {
                        InfeasiblePolicy::FallbackEvaluateAll
                    }
                    Token::String(text) if text == "error" => InfeasiblePolicy::Error,
                    _ => {
                        return Err(bad_request(
                            "\"on_infeasible\" must be \"fallback\" or \"error\"",
                        ))
                    }
                }
            }
            other => return Err(bad_request(format!("unknown field {other:?}"))),
        }
    }
    let table = table.ok_or_else(|| bad_request("missing \"table\""))?;
    let query = query.ok_or_else(|| bad_request("missing \"query\""))??;
    let request = query_request(query)?
        .with_seed(seed)
        .with_on_infeasible(policy);
    Ok(ApiQuery {
        tenant,
        table,
        request,
    })
}

fn read_table(reader: &mut JsonReader<'_>, max_rows: usize) -> Result<TableKey, Stop> {
    object(reader, "\"table\" must be an object")?;
    let (mut spec, mut rows, mut seed) = (None, None, 0u64);
    let mut fields = Fields::of(&["spec", "rows", "seed"]);
    while let Some(key) = fields.next(reader)? {
        match &*key {
            "spec" => {
                spec = Some(string(reader, "\"table.spec\" must be a string")?);
            }
            "rows" => {
                rows =
                    Some(integer(reader, "\"table.rows\" must be a non-negative integer")? as usize)
            }
            "seed" => seed = integer(reader, "\"table.seed\" must be a non-negative integer")?,
            other => return Err(bad_request(format!("unknown table field {other:?}"))),
        }
    }
    let spec = spec.ok_or_else(|| bad_request("missing \"table.spec\""))?;
    let rows = rows.ok_or_else(|| bad_request("missing \"table.rows\""))?;
    let Some(generator) = generator(&spec) else {
        return Err(bad_request(format!(
            "unknown table spec {spec:?} (available: prosper, lc)"
        )));
    };
    // Below one row per group the generator cannot place its groups
    // (it asserts as much): check the bound here, where it can still be
    // a 400.
    let min_rows = generator.spec().groups;
    if rows < min_rows || rows > max_rows {
        return Err(bad_request(format!(
            "\"table.rows\" must be in {min_rows}..={max_rows} for spec {spec:?} \
             (at least one row per group), got {rows}"
        )));
    }
    Ok(TableKey {
        spec: generator,
        rows,
        seed,
    })
}

/// Largest accepted `rounds` value. The engine takes any nonzero count
/// (`IntelSampleConfig::rounds` is a `NonZeroUsize`), so without an
/// API-side ceiling a single admitted request could command unbounded
/// CPU — the same admission-control hole `max_rows` closes for table
/// size.
pub const MAX_ROUNDS: u64 = 64;

/// The `query` object's shared contract fields, collected before the
/// kind-specific interpretation.
struct QueryFields<'a> {
    kind: Cow<'a, str>,
    alpha: f64,
    beta: f64,
    rho: f64,
    cost: CostModel,
    predictor: Option<String>,
    label_fraction: f64,
    sample_fraction: f64,
    corr: CorrelationModel,
    rounds: NonZeroUsize,
    predicate: Option<String>,
}

fn number(reader: &mut JsonReader<'_>, name: &str) -> Result<f64, Stop> {
    reader
        .next()?
        .as_f64()
        .ok_or_else(|| bad_request(format!("{name:?} must be a number")))
}

/// A fraction knob sizes a sample or labeling budget relative to the
/// table, so anything outside (0, 1] is either meaningless or a request
/// for more-than-the-table work.
fn fraction(reader: &mut JsonReader<'_>, name: &str) -> Result<f64, Stop> {
    let n = number(reader, name)?;
    if n > 0.0 && n <= 1.0 {
        Ok(n)
    } else {
        Err(bad_request(format!("{name:?} must be in (0, 1], got {n}")))
    }
}

fn bounded(reader: &mut JsonReader<'_>, name: &str, max: u64) -> Result<NonZeroUsize, Stop> {
    let n = reader
        .next()?
        .as_u64()
        .ok_or_else(|| bad_request(format!("{name:?} must be an integer")))?;
    match NonZeroUsize::new(n as usize) {
        Some(count) if n <= max => Ok(count),
        _ => Err(bad_request(format!(
            "{name:?} must be in 1..={max}, got {n}"
        ))),
    }
}

fn read_query<'a>(reader: &mut JsonReader<'a>) -> Result<QueryFields<'a>, Stop> {
    object(reader, "\"query\" must be an object")?;
    let mut f = QueryFields {
        kind: Cow::Borrowed(""),
        alpha: 0.8,
        beta: 0.8,
        rho: 0.8,
        cost: CostModel::PAPER_DEFAULT,
        predictor: None,
        label_fraction: 0.01,
        sample_fraction: 0.05,
        corr: CorrelationModel::Independent,
        rounds: NonZeroUsize::MIN.saturating_add(1),
        predicate: None,
    };
    let mut fields = Fields::of(&[
        "kind",
        "alpha",
        "beta",
        "rho",
        "cost",
        "predictor",
        "label_fraction",
        "sample_fraction",
        "corr",
        "rounds",
        "predicate",
    ]);
    while let Some(key) = fields.next(reader)? {
        match &*key {
            "kind" => f.kind = string(reader, "\"query.kind\" must be a string")?,
            "alpha" => f.alpha = number(reader, "alpha")?,
            "beta" => f.beta = number(reader, "beta")?,
            "rho" => f.rho = number(reader, "rho")?,
            "cost" => f.cost = read_cost(reader)?,
            "predictor" => {
                f.predictor = Some(string(reader, "\"predictor\" must be a string")?.into_owned());
            }
            "label_fraction" => f.label_fraction = fraction(reader, "label_fraction")?,
            "sample_fraction" => f.sample_fraction = fraction(reader, "sample_fraction")?,
            "corr" => {
                f.corr = match reader.next()? {
                    Token::String(text) if text == "independent" => CorrelationModel::Independent,
                    Token::String(text) if text == "unknown" => CorrelationModel::Unknown,
                    _ => {
                        return Err(bad_request(
                            "\"corr\" must be \"independent\" or \"unknown\"",
                        ))
                    }
                }
            }
            "rounds" => f.rounds = bounded(reader, "rounds", MAX_ROUNDS)?,
            "predicate" => {
                f.predicate = Some(string(reader, "\"predicate\" must be a string")?.into_owned());
            }
            other => return Err(bad_request(format!("unknown query field {other:?}"))),
        }
    }
    Ok(f)
}

/// The engine request a `query` object's fields ask for.
fn query_request(f: QueryFields<'_>) -> Result<QueryRequest, ApiError> {
    // The contract is validated here (fallibly) so a bad request is a 400
    // at the door; the engine re-validates on submit regardless.
    let spec = QuerySpec::try_new(f.alpha, f.beta, f.rho, f.cost).map_err(ApiError::from)?;
    let needs_predictor = || {
        f.predictor.clone().ok_or_else(|| {
            ApiError::bad_request(format!("query kind {:?} requires \"predictor\"", f.kind))
        })
    };
    // `adaptive`, `iterative` and `intel_sample` are three settings of
    // the one Intel-Sample pipeline.
    let intel_sample = |predictor, sampling, rounds| {
        QueryRequest::intel_sample(IntelSampleConfig {
            spec,
            sampling,
            corr: f.corr,
            predictor,
            rounds,
        })
    };
    let rule = Sampling::Rule(SampleSizeRule::Fraction(f.sample_fraction));
    match &*f.kind {
        "naive" => Ok(QueryRequest::naive(spec)),
        "optimal" => Ok(QueryRequest::optimal(spec, needs_predictor()?)),
        "adaptive" => {
            let predictor = PredictorChoice::Fixed(needs_predictor()?);
            Ok(intel_sample(predictor, Sampling::Search, NonZeroUsize::MIN))
        }
        "iterative" => {
            let predictor = PredictorChoice::Fixed(needs_predictor()?);
            Ok(intel_sample(predictor, rule, f.rounds))
        }
        "intel_sample" => {
            let predictor = match f.predictor {
                Some(column) => PredictorChoice::Fixed(column),
                None => PredictorChoice::Auto {
                    label_fraction: f.label_fraction,
                },
            };
            Ok(intel_sample(predictor, rule, NonZeroUsize::MIN))
        }
        "expr" => {
            let predicate = f.predicate.ok_or_else(|| {
                ApiError::bad_request("query kind \"expr\" requires \"predicate\"")
            })?;
            // Every identifier resolves to an oracle leaf over the column
            // of that name; a column the table lacks is caught by strategy
            // validation (404 unknown_column), a malformed string here
            // (400 bad_expression).
            let expr = expred_udf::parse_predicate(&predicate, &expred_udf::OracleRegistry::new())
                .map_err(|e| ApiError::from(EngineError::from(e)))?;
            Ok(QueryRequest::expr_scan(expr, f.cost))
        }
        "" => Err(ApiError::bad_request("missing \"query.kind\"")),
        other => Err(ApiError::bad_request(format!(
            "unknown query kind {other:?} (available: naive, intel_sample, optimal, \
             adaptive, iterative, expr)"
        ))),
    }
}

fn read_cost(reader: &mut JsonReader<'_>) -> Result<CostModel, Stop> {
    object(reader, "\"cost\" must be an object")?;
    let mut cost = CostModel::PAPER_DEFAULT;
    let mut fields = Fields::of(&["retrieve", "evaluate"]);
    while let Some(key) = fields.next(reader)? {
        let n = reader
            .next()?
            .as_f64()
            .ok_or_else(|| bad_request(format!("cost field {key:?} must be a number")))?;
        match &*key {
            "retrieve" => cost.retrieve = n,
            "evaluate" => cost.evaluate = n,
            other => return Err(bad_request(format!("unknown cost field {other:?}"))),
        }
    }
    Ok(cost)
}

/// Renders a 200 body for one outcome. Deliberately *excludes*
/// `compute_seconds` (wall-clock noise) so the body is a pure function
/// of the outcome the engine memoizes — the end-to-end tests assert an
/// HTTP answer is byte-identical to a direct submit rendered the same
/// way.
pub fn render_outcome(tenant: &str, outcome: &RunOutcome) -> Vec<u8> {
    // Sized once, so a body is one allocation (past the bound, a regrow).
    let mut w = JsonWriter::with_capacity(outcome_capacity(tenant, &outcome.returned));
    w.begin_object().key("tenant").str(tenant);
    w.key("returned").id_plane(outcome.returned.words());
    w.key("counts").begin_object();
    w.key("retrieved").u64(outcome.counts.retrieved);
    w.key("evaluated").u64(outcome.counts.evaluated);
    w.key("cache_hits").u64(outcome.counts.cache_hits);
    w.key("reuse_hits").u64(outcome.counts.reuse_hits);
    w.end_object();
    w.key("cost").f64(outcome.cost);
    w.key("precision").f64(outcome.summary.precision);
    w.key("recall").f64(outcome.summary.recall);
    w.key("num_groups").u64(outcome.num_groups as u64);
    w.key("plan_feasible").bool(outcome.plan_feasible);
    w.end_object();
    w.finish_bytes()
}

/// Upper bound on a 200 body's length for any outcome with ordinary
/// floats and a tenant that needs no escapes: the ids, the tenant, and
/// 320 bytes for the field names (≈ 150) and the nine scalar values.
fn outcome_capacity(tenant: &str, returned: &RowSet) -> usize {
    id_plane_len(returned.words()) + tenant.len() + 320
}

#[cfg(test)]
mod tests;
