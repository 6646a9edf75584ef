//! The `fpserved` JSON-lines batch protocol.
//!
//! One request per line, one response per line, over TCP or a stdin/stdout
//! pipe. The protocol layer is deliberately std-only (the build is fully
//! offline): a small hand-rolled JSON parser with column-accurate errors,
//! request/response types, and a shared [`ServeState`] holding the
//! content-addressed block cache that amortizes optimization work across
//! requests — the session subsystem's serving front end.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "method": "optimize", "builtin": "fp1", "n": 8, "k1": 40}
//! {"id": 2, "method": "optimize", "instance": "module a 2x3\ntree a"}
//! {"id": 3, "method": "stats"}
//! {"id": 4, "method": "metrics"}
//! {"id": 5, "method": "ping"}
//! {"id": 6, "method": "shutdown"}
//! ```
//!
//! `optimize` takes either `builtin` (`fig1`, `fp1`…`fp4`, `ami33`,
//! `ami49`, with `n`/`seed` module-generator knobs) or `instance` (a full
//! `.fpt` text, `\n`-escaped), plus the CLI's selection and robustness
//! knobs: `k1`, `k2`, `theta`, `prefilter`, `memory`, `deadline_ms`,
//! `threads` (intra-request tree parallelism, `0` = all cores),
//! `auto_rescue`, `objective` (`"area"`/`"hp"`), `outline` (`"WxH"`).
//!
//! Wirelength-aware requests attach a netlist — `netlist` (a full
//! `.fpn` text, `\n`-escaped) or `nets`/`net_seed` (a deterministic
//! generated netlist over the instance's modules) — plus `alpha`
//! (weight on area in the composite objective, default 1.0) or
//! `max_hpwl` (epsilon-constraint wirelength budget). The `pareto`
//! method takes the same fields and returns the whole non-dominated
//! (area, HPWL, fit) front instead of one winner:
//!
//! ```json
//! {"id": 7, "method": "optimize", "builtin": "fp1", "nets": 30, "alpha": 0.5}
//! {"id": 8, "method": "pareto", "builtin": "fp1", "nets": 30}
//! ```
//!
//! The `anneal` method runs multi-start simulated-annealing topology
//! search over the instance's module library (the request's tree only
//! supplies the modules): `chains` independent chains (default 1, max
//! 64) of `moves` proposed moves each (default 2000), deterministic in
//! `anneal_seed`, merged best-of-N. Annealing is area-only and runs to
//! completion, so the netlist, outline, and budget fields are rejected.
//! The search itself is injected by the server binary
//! ([`ServeState::with_anneal_backend`]) because the annealer crate
//! sits above this one:
//!
//! ```json
//! {"id": 9, "method": "anneal", "builtin": "fp1", "chains": 4, "moves": 500}
//! ```
//!
//! ## Protocol versioning
//!
//! Every request may pin a protocol version with `"proto": 1`; omitting
//! the field means v1, which is exactly the historical wire format
//! (byte-for-byte). `ping` and `stats` replies echo `"proto":1` so
//! clients can probe the server's version; pinning any other version
//! gets a structured status-2 reply carrying both `proto` (the
//! server's) and `requested_proto`.
//!
//! ## Layout post-processing
//!
//! `optimize` requests may add `"layout": true` to realize the winning
//! assignment and attach a `layout` object to the reply: `dead_space`,
//! the polygonized whitespace distribution (`whitespace_regions`,
//! `whitespace_total`, `whitespace_largest`, `region_areas` sorted
//! largest first), and `outline_rings` (boundary rings of the merged
//! occupied area, holes included).
//!
//! ## Responses
//!
//! Every response carries the echoed `id` (when the request had one), the
//! 1-based `line` of the request in the stream, and a `status` reusing the
//! documented CLI exit-code contract ([`status_for`]): 0 success,
//! 1 internal error, 2 malformed request, 3 bad instance, 4 budget
//! exhausted, 5 deadline exceeded or cancelled, 6 outline infeasible.
//! Malformed requests get positional errors: `line` plus the JSON `col`
//! (or the embedded instance's `instance_line`/`instance_col`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fp_tree::format::{parse_instance, FloorplanInstance};
use fp_tree::generators;
use fp_tree::{FloorplanTree, ModuleLibrary};

use crate::cache::{shared_cache, SharedBlockCache};
use crate::engine::{Objective, OptError, OptimizeConfig, Optimizer, RunOutcome};
use crate::exec::{Executor, Lease};
use crate::governor::CancelToken;
use crate::multi::CompositeObjective;
use fp_netlist::{hypervolume, netlist_fingerprint, parse_netlist, random_netlist, Netlist};
use fp_select::LReductionPolicy;
use fp_trace::{MetricsRegistry, Tracer};

/// Request handled successfully.
pub const STATUS_OK: u8 = 0;
/// An engine invariant broke (a bug, not a user error).
pub const STATUS_INTERNAL: u8 = 1;
/// The request line is malformed (bad JSON, unknown method, bad field).
pub const STATUS_BAD_REQUEST: u8 = 2;
/// The floorplan instance is unreadable or invalid.
pub const STATUS_BAD_INPUT: u8 = 3;
/// The implementation budget tripped (or an injected fault).
pub const STATUS_RESOURCE: u8 = 4;
/// The per-request deadline passed or the request was cancelled.
pub const STATUS_DEADLINE: u8 = 5;
/// No root implementation fits the requested fixed outline.
pub const STATUS_OUTLINE: u8 = 6;
/// The server shed this request instead of queueing it: admission
/// control was at its in-flight limit, the request overstayed its queue
/// deadline, or the connection backlog was full. The request was never
/// executed — retrying later is safe.
pub const STATUS_OVERLOADED: u8 = 7;

/// The protocol version this server speaks. Requests may pin a version
/// with a `proto` field; **v1 is exactly the historical wire format**,
/// so omitting the field and sending `"proto":1` are byte-for-byte
/// equivalent. `ping` and `stats` replies echo the server's version, and
/// a request pinning any other version gets a structured
/// [`STATUS_BAD_REQUEST`] reply carrying both versions — a client can
/// probe for capabilities without tripping over an unknown-field error.
pub const PROTO_VERSION: u64 = 1;

/// Maps an optimizer error to the documented status/exit code. This is
/// the single source of truth shared by the `fpopt` CLI's exit codes and
/// `fpserved`'s per-request statuses.
#[must_use]
pub fn status_for(e: &OptError) -> u8 {
    match e {
        OptError::Tree(_)
        | OptError::EmptyFloorplan
        | OptError::MissingModule { .. }
        | OptError::NoImplementations { .. } => STATUS_BAD_INPUT,
        OptError::OutOfMemory { .. } | OptError::FaultInjected { .. } => STATUS_RESOURCE,
        OptError::DeadlineExceeded { .. } | OptError::Cancelled { .. } => STATUS_DEADLINE,
        OptError::NoFeasibleOutline { .. } => STATUS_OUTLINE,
        OptError::Internal { .. } => STATUS_INTERNAL,
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exactly one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A JSON syntax error with a 1-based column (character position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based character column of the offending input.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

/// Maximum `[`/`{` nesting accepted (keeps the parser's recursion safe).
const MAX_JSON_DEPTH: usize = 64;

struct JsonParser {
    chars: Vec<char>,
    pos: usize,
}

impl JsonParser {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            col: self.pos + 1,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), JsonError> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => {
                self.pos -= 1;
                Err(self.err(format!("expected `{want}`, found `{c}`")))
            }
            None => Err(self.err(format!("expected `{want}`, found end of input"))),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("expected a value, found end of input")),
            Some('{') => self.parse_object(depth),
            Some('[') => self.parse_array(depth),
            Some('"') => self.parse_string().map(Json::Str),
            Some('t') | Some('f') | Some('n') => self.parse_keyword(),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character `{c}`"))),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_char('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some('"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_char(':')?;
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(members)),
                Some(c) => {
                    self.pos -= 1;
                    return Err(self.err(format!("expected `,` or `}}`, found `{c}`")));
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_char('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                Some(c) => {
                    self.pos -= 1;
                    return Err(self.err(format!("expected `,` or `]`, found `{c}`")));
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code: u32 = 0;
                        for _ in 0..4 {
                            let digit = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            code = code * 16 + digit;
                        }
                        // Surrogates and other invalid scalars are
                        // replaced rather than rejected.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some(c) => return Err(self.err(format!("invalid escape `\\{c}`"))),
                    None => return Err(self.err("unterminated escape")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_keyword(&mut self) -> Result<Json, JsonError> {
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            let end = self.pos + word.chars().count();
            if end <= self.chars.len() && self.chars[self.pos..end].iter().copied().eq(word.chars())
            {
                self.pos = end;
                return Ok(value);
            }
        }
        Err(self.err("expected `true`, `false`, or `null`"))
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err(format!("invalid number `{text}`")))
            }
        }
    }
}

/// Parses one JSON document (a full request line).
///
/// # Errors
///
/// [`JsonError`] with the 1-based character column of the first offence,
/// including trailing garbage after a complete value.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = JsonParser {
        chars: input.chars().collect(),
        pos: 0,
    };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if let Some(c) = p.peek() {
        return Err(p.err(format!("trailing characters after value: `{c}`")));
    }
    Ok(value)
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// An incremental JSON object writer (responses are always objects).
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// An empty object under construction.
    #[must_use]
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn pre(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape_json(key));
        self.buf.push_str("\":");
    }

    /// Adds a raw, already-serialized member.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.pre(key);
        self.buf.push_str(value);
        self
    }

    /// Adds a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.pre(key);
        self.buf.push('"');
        self.buf.push_str(&escape_json(value));
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer member.
    pub fn u128(&mut self, key: &str, value: u128) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    /// Adds an unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    /// Adds a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A request's `id`, echoed verbatim into its response.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestId {
    /// A JSON number id.
    Num(f64),
    /// A JSON string id.
    Str(String),
}

impl RequestId {
    fn to_json(&self) -> String {
        match self {
            RequestId::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            RequestId::Str(s) => format!("\"{}\"", escape_json(s)),
        }
    }
}

/// What a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Run the optimizer over an instance.
    Optimize(Box<OptimizeRequest>),
    /// Run the optimizer and return the non-dominated (area, HPWL,
    /// outline-fit) front against the request's netlist.
    Pareto(Box<OptimizeRequest>),
    /// Run multi-start simulated annealing over the instance's module
    /// library (topology search; the optimizer is the inner loop).
    Anneal(Box<AnnealRequest>),
    /// Liveness probe.
    Ping,
    /// Cache/session counters.
    Stats,
    /// The server-lifetime metrics registry, as structured counters plus
    /// a Prometheus text rendering.
    Metrics,
    /// Stop accepting work, drain, exit.
    Shutdown,
}

/// Parameters of an `optimize` request (all optional except the
/// instance source).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Built-in benchmark name (`fig1`, `fp1`…`fp4`, `ami33`, `ami49`).
    pub builtin: Option<String>,
    /// Full `.fpt` instance text (alternative to `builtin`).
    pub instance: Option<String>,
    /// Implementations per module for built-in generators.
    pub n: usize,
    /// Module-set seed for built-in generators.
    pub seed: u64,
    /// `R_Selection` limit `K₁`.
    pub k1: Option<usize>,
    /// `L_Selection` limit `K₂`.
    pub k2: Option<usize>,
    /// `L_Selection` trigger θ.
    pub theta: f64,
    /// `L_Selection` heuristic prefilter `S`.
    pub prefilter: Option<usize>,
    /// Implementation budget.
    pub memory: Option<usize>,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Tree-parallelism worker count for this request (`0` = all
    /// cores); defaults to the server-wide setting when absent.
    pub threads: Option<usize>,
    /// Degrade-and-retry on budget trips.
    pub auto_rescue: bool,
    /// Root objective.
    pub objective: Objective,
    /// Fixed outline `WxH`.
    pub outline: Option<fp_geom::Rect>,
    /// Full `.fpn` netlist text for wirelength-aware requests.
    pub netlist: Option<String>,
    /// Net count of a deterministically generated netlist (alternative
    /// to `netlist`).
    pub nets: Option<usize>,
    /// Seed of the generated netlist.
    pub net_seed: u64,
    /// Weight on area in the composite objective (`1.0` = area only).
    pub alpha: Option<f64>,
    /// Epsilon-constraint wirelength budget (overrides `alpha`).
    pub max_hpwl: Option<u64>,
    /// Attach layout post-processing to the reply: realize the winning
    /// assignment and report the polygonized whitespace distribution
    /// (`optimize` only).
    pub layout: bool,
}

impl Default for OptimizeRequest {
    fn default() -> Self {
        OptimizeRequest {
            builtin: None,
            instance: None,
            n: 8,
            seed: 1,
            k1: None,
            k2: None,
            theta: 1.0,
            prefilter: None,
            memory: None,
            deadline_ms: None,
            threads: None,
            auto_rescue: false,
            objective: Objective::MinArea,
            outline: None,
            netlist: None,
            nets: None,
            net_seed: 1,
            alpha: None,
            max_hpwl: None,
            layout: false,
        }
    }
}

/// Parameters of an `anneal` request: the instance source and
/// selection knobs of an [`OptimizeRequest`] (netlist, outline, and
/// budget fields are rejected — annealing jobs are area-only and run
/// to completion) plus the multi-start knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealRequest {
    /// Instance source and inner-optimizer knobs.
    pub base: OptimizeRequest,
    /// Independent chains to run (best-of-N merge).
    pub chains: usize,
    /// Proposed moves per chain.
    pub moves: usize,
    /// Base annealing seed; chain `i` derives its own stream from it.
    pub anneal_seed: u64,
}

impl Default for AnnealRequest {
    fn default() -> Self {
        AnnealRequest {
            base: OptimizeRequest::default(),
            chains: 1,
            moves: 2_000,
            anneal_seed: 1,
        }
    }
}

/// What the server hands an injected [`AnnealBackend`]: everything a
/// multi-start run needs, resolved from the request and the server
/// state. The protocol layer cannot depend on the annealer crate (the
/// annealer depends on this crate), so the binary wires the search in.
pub struct AnnealJob<'a> {
    /// The instance's module library (topology search ignores the
    /// request's tree — the annealer proposes its own).
    pub library: &'a ModuleLibrary,
    /// Independent chains to run.
    pub chains: usize,
    /// Proposed moves per chain.
    pub moves: usize,
    /// Base annealing seed.
    pub seed: u64,
    /// Inner-loop optimizer configuration (selection policies, threads).
    pub optimizer: OptimizeConfig,
    /// The server's shared block cache; chains share it.
    pub cache: &'a SharedBlockCache,
    /// The server's executor, when one is attached: chains should run
    /// on it as anneal-class jobs.
    pub executor: Option<&'a Executor>,
}

/// What an [`AnnealBackend`] returns; the server renders it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnealOutcome {
    /// The winning chain's best area.
    pub best_area: u128,
    /// Area of the initial topology, for reference.
    pub initial_area: u128,
    /// Index of the winning chain.
    pub best_chain: usize,
    /// Every chain's best area, in chain order.
    pub chain_areas: Vec<u128>,
    /// Moves accepted across all chains.
    pub accepted: u64,
    /// Moves proposed across all chains.
    pub proposed: u64,
    /// The winning topology as a Polish-expression string.
    pub expression: String,
}

/// The injected multi-start annealing implementation (see
/// [`ServeState::with_anneal_backend`]).
pub type AnnealBackend = dyn Fn(&AnnealJob<'_>) -> AnnealOutcome + Send + Sync;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed correlation id, if the client sent one.
    pub id: Option<RequestId>,
    /// The protocol version the request pinned (defaults to
    /// [`PROTO_VERSION`] when the `proto` field is absent; any other
    /// value is rejected at parse time, so an executed request always
    /// carries the server's version).
    pub proto: u64,
    /// The requested operation.
    pub method: Method,
}

/// Why a request line was rejected (always status 2).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not valid JSON; carries the id-less positional error.
    Json(JsonError),
    /// The JSON is valid but the request is not; carries the echoed id
    /// (when one was readable) and the complaint.
    Bad(Option<RequestId>, String),
    /// The request pinned a protocol version this server does not speak;
    /// carries the echoed id and the requested version. The reply states
    /// the server's own [`PROTO_VERSION`] so clients can downgrade.
    UnsupportedProto(Option<RequestId>, u64),
}

fn field_usize(obj: &Json, key: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n as usize)),
            None => Err(format!("`{key}` must be a non-negative integer")),
        },
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v.as_bool().ok_or(format!("`{key}` must be a boolean")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`RequestError::Json`] for syntax errors (with a 1-based column),
/// [`RequestError::Bad`] for structurally invalid requests.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = parse_json(line).map_err(RequestError::Json)?;
    let id = match doc.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Num(n)) => Some(RequestId::Num(*n)),
        Some(Json::Str(s)) => Some(RequestId::Str(s.clone())),
        Some(_) => {
            return Err(RequestError::Bad(
                None,
                "`id` must be a number or string".to_owned(),
            ))
        }
    };
    let bad = |msg: String| RequestError::Bad(id.clone(), msg);
    if !matches!(doc, Json::Obj(_)) {
        return Err(bad("request must be a JSON object".to_owned()));
    }
    let proto = match doc.get("proto") {
        None | Some(Json::Null) => PROTO_VERSION,
        Some(v) => v
            .as_u64()
            .filter(|&p| p >= 1)
            .ok_or_else(|| bad("`proto` must be a positive integer".to_owned()))?,
    };
    if proto != PROTO_VERSION {
        return Err(RequestError::UnsupportedProto(id.clone(), proto));
    }
    let method = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing `method` string".to_owned()))?;
    let method = match method {
        "ping" => Method::Ping,
        "stats" => Method::Stats,
        "metrics" => Method::Metrics,
        "shutdown" => Method::Shutdown,
        "optimize" | "pareto" | "anneal" => {
            let mut req = OptimizeRequest {
                builtin: doc.get("builtin").and_then(Json::as_str).map(str::to_owned),
                instance: doc
                    .get("instance")
                    .and_then(Json::as_str)
                    .map(str::to_owned),
                ..OptimizeRequest::default()
            };
            if req.builtin.is_none() && req.instance.is_none() {
                return Err(bad(format!("`{method}` needs `builtin` or `instance`")));
            }
            if let Some(n) = field_usize(&doc, "n").map_err(&bad)? {
                if n == 0 {
                    return Err(bad("`n` must be at least 1".to_owned()));
                }
                req.n = n;
            }
            if let Some(seed) = field_usize(&doc, "seed").map_err(&bad)? {
                req.seed = seed as u64;
            }
            req.k1 = field_usize(&doc, "k1").map_err(&bad)?;
            req.k2 = field_usize(&doc, "k2").map_err(&bad)?;
            req.prefilter = field_usize(&doc, "prefilter").map_err(&bad)?;
            req.memory = field_usize(&doc, "memory").map_err(&bad)?;
            req.deadline_ms = field_usize(&doc, "deadline_ms")
                .map_err(&bad)?
                .map(|ms| ms as u64);
            req.threads = field_usize(&doc, "threads").map_err(&bad)?;
            req.auto_rescue = field_bool(&doc, "auto_rescue").map_err(&bad)?;
            if let Some(theta) = doc.get("theta") {
                let theta = theta
                    .as_f64()
                    .filter(|t| (0.0..=1.0).contains(t) && *t > 0.0)
                    .ok_or_else(|| bad("`theta` must be a number in (0, 1]".to_owned()))?;
                req.theta = theta;
            }
            if let Some(objective) = doc.get("objective") {
                req.objective = match objective.as_str() {
                    Some("area") => Objective::MinArea,
                    Some("hp") => Objective::MinHalfPerimeter,
                    _ => return Err(bad("`objective` must be \"area\" or \"hp\"".to_owned())),
                };
            }
            if let Some(outline) = doc.get("outline") {
                let text = outline
                    .as_str()
                    .ok_or_else(|| bad("`outline` must be a \"WxH\" string".to_owned()))?;
                let parsed = text
                    .split_once(['x', 'X'])
                    .and_then(|(w, h)| Some(fp_geom::Rect::new(w.parse().ok()?, h.parse().ok()?)));
                match parsed {
                    Some(r) if r.w > 0 && r.h > 0 => req.outline = Some(r),
                    _ => return Err(bad(format!("`outline` is not a WxH pair: `{text}`"))),
                }
            }
            req.netlist = doc.get("netlist").and_then(Json::as_str).map(str::to_owned);
            if let Some(nets) = field_usize(&doc, "nets").map_err(&bad)? {
                if nets == 0 {
                    return Err(bad("`nets` must be at least 1".to_owned()));
                }
                req.nets = Some(nets);
            }
            if req.netlist.is_some() && req.nets.is_some() {
                return Err(bad("`netlist` and `nets` are mutually exclusive".to_owned()));
            }
            if let Some(seed) = field_usize(&doc, "net_seed").map_err(&bad)? {
                req.net_seed = seed as u64;
            }
            if let Some(alpha) = doc.get("alpha") {
                let alpha = alpha
                    .as_f64()
                    .filter(|a| (0.0..=1.0).contains(a))
                    .ok_or_else(|| bad("`alpha` must be a number in [0, 1]".to_owned()))?;
                req.alpha = Some(alpha);
            }
            req.max_hpwl = field_usize(&doc, "max_hpwl")
                .map_err(&bad)?
                .map(|h| h as u64);
            req.layout = field_bool(&doc, "layout").map_err(&bad)?;
            if req.layout && method != "optimize" {
                return Err(bad(format!("`{method}` does not accept `layout`")));
            }
            let wants_netlist = req.alpha.is_some() || req.max_hpwl.is_some() || method == "pareto";
            if wants_netlist && req.netlist.is_none() && req.nets.is_none() {
                return Err(bad(format!(
                    "`{method}` with wirelength objectives needs `netlist` or `nets`"
                )));
            }
            if method == "anneal" {
                // Annealing jobs are area-only and run to completion:
                // the wirelength, outline, and budget knobs have no
                // defined behaviour there, so reject them loudly
                // instead of silently ignoring them.
                for (present, field) in [
                    (req.netlist.is_some(), "netlist"),
                    (req.nets.is_some(), "nets"),
                    (req.alpha.is_some(), "alpha"),
                    (req.max_hpwl.is_some(), "max_hpwl"),
                    (req.outline.is_some(), "outline"),
                    (req.deadline_ms.is_some(), "deadline_ms"),
                    (req.memory.is_some(), "memory"),
                ] {
                    if present {
                        return Err(bad(format!("`anneal` does not accept `{field}`")));
                    }
                }
                let mut anneal = AnnealRequest {
                    base: req,
                    ..AnnealRequest::default()
                };
                if let Some(chains) = field_usize(&doc, "chains").map_err(&bad)? {
                    if chains == 0 || chains > 64 {
                        return Err(bad("`chains` must be in 1..=64".to_owned()));
                    }
                    anneal.chains = chains;
                }
                if let Some(moves) = field_usize(&doc, "moves").map_err(&bad)? {
                    if moves == 0 {
                        return Err(bad("`moves` must be at least 1".to_owned()));
                    }
                    anneal.moves = moves;
                }
                if let Some(seed) = field_usize(&doc, "anneal_seed").map_err(&bad)? {
                    anneal.anneal_seed = seed as u64;
                }
                Method::Anneal(Box::new(anneal))
            } else if method == "pareto" {
                Method::Pareto(Box::new(req))
            } else {
                Method::Optimize(Box::new(req))
            }
        }
        other => {
            return Err(bad(format!(
            "unknown method `{other}` (optimize, pareto, anneal, ping, stats, metrics, shutdown)"
        )))
        }
    };
    Ok(Request { id, proto, method })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Upper bounds (microseconds) of the per-method latency buckets; the
/// implicit overflow bucket completes the series.
const METHOD_LAT_BOUNDS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// One lock-free cumulative latency histogram (per served method).
#[derive(Debug, Default)]
struct MethodHist {
    counts: [AtomicU64; METHOD_LAT_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl MethodHist {
    fn observe(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let slot = METHOD_LAT_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(METHOD_LAT_BOUNDS_US.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The smallest bucket bound covering quantile `q`, in
    /// microseconds; the overflow bucket reports the observed maximum.
    fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0;
        for (slot, &bound) in METHOD_LAT_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts[slot].load(Ordering::Relaxed);
            if cumulative >= rank {
                return bound;
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// `{"count":N,"p50_ms":…,"p99_ms":…,"p999_ms":…,"max_ms":…}`.
    fn to_json(&self) -> String {
        let ms = |us: u64| us as f64 / 1_000.0;
        format!(
            "{{\"count\":{},\"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{},\"max_ms\":{}}}",
            self.count.load(Ordering::Relaxed),
            ms(self.quantile_us(0.50)),
            ms(self.quantile_us(0.99)),
            ms(self.quantile_us(0.999)),
            ms(self.max_us.load(Ordering::Relaxed)),
        )
    }

    fn render_prometheus(&self, name: &str, method: &str, out: &mut String) {
        use std::fmt::Write as _;
        let mut cumulative = 0;
        for (slot, &bound) in METHOD_LAT_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts[slot].load(Ordering::Relaxed);
            let le = bound as f64 / 1e6;
            let _ = writeln!(
                out,
                "{name}_bucket{{method=\"{method}\",le=\"{le}\"}} {cumulative}"
            );
        }
        cumulative += self.counts[METHOD_LAT_BOUNDS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{method=\"{method}\",le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "{name}_sum{{method=\"{method}\"}} {}",
            self.sum_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "{name}_count{{method=\"{method}\"}} {}",
            self.count.load(Ordering::Relaxed)
        );
    }
}

/// The latency-accounting class of a request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MethodKind {
    Optimize = 0,
    Pareto = 1,
    Anneal = 2,
    /// `ping`, `stats`, `metrics`, `shutdown`.
    Control = 3,
}

impl MethodKind {
    const ALL: [(MethodKind, &'static str); 4] = [
        (MethodKind::Optimize, "optimize"),
        (MethodKind::Pareto, "pareto"),
        (MethodKind::Anneal, "anneal"),
        (MethodKind::Control, "control"),
    ];

    fn of(method: &Method) -> MethodKind {
        match method {
            Method::Optimize(_) => MethodKind::Optimize,
            Method::Pareto(_) => MethodKind::Pareto,
            Method::Anneal(_) => MethodKind::Anneal,
            Method::Ping | Method::Stats | Method::Metrics | Method::Shutdown => {
                MethodKind::Control
            }
        }
    }
}

/// Server-wide shared state: the cross-request block cache, admission
/// control, and counters.
pub struct ServeState {
    cache: SharedBlockCache,
    requests: AtomicU64,
    threads: usize,
    metrics: MetricsRegistry,
    /// Jobs admitted and not yet finished (queued + executing).
    inflight: AtomicU64,
    /// Admission limit on in-flight jobs (`0` = unlimited).
    max_inflight: u64,
    /// Requests shed with [`STATUS_OVERLOADED`] instead of executed.
    shed: AtomicU64,
    /// Wirelength-aware `optimize` requests served.
    netlist_requests: AtomicU64,
    /// `pareto` requests served.
    pareto_requests: AtomicU64,
    /// Non-dominated points returned across all `pareto` replies.
    pareto_points: AtomicU64,
    /// `anneal` requests served.
    anneal_requests: AtomicU64,
    /// The injected multi-start annealing implementation, if any.
    anneal_backend: Option<Arc<AnnealBackend>>,
    /// The job executor, when the server runs on one: stats/metrics
    /// report its gauges and optimize runs lease spare workers from it.
    executor: Option<Arc<Executor>>,
    /// Per-method service-time histograms, indexed by [`MethodKind`].
    latency: [MethodHist; 4],
}

impl ServeState {
    /// Fresh state with a block cache of the given byte budget. The
    /// per-request thread default follows `FP_THREADS` (else 1).
    #[must_use]
    pub fn new(cache_bytes: usize) -> Self {
        ServeState::with_cache(shared_cache(cache_bytes))
    }

    /// Fresh state around an existing cache — in-memory or persistent
    /// (see [`SharedBlockCache::open_persistent`]); a persistent cache
    /// gives the server warm restarts across process boundaries.
    #[must_use]
    pub fn with_cache(cache: SharedBlockCache) -> Self {
        ServeState {
            cache,
            requests: AtomicU64::new(0),
            threads: OptimizeConfig::default().threads,
            metrics: MetricsRegistry::new(),
            inflight: AtomicU64::new(0),
            max_inflight: 0,
            shed: AtomicU64::new(0),
            netlist_requests: AtomicU64::new(0),
            pareto_requests: AtomicU64::new(0),
            pareto_points: AtomicU64::new(0),
            anneal_requests: AtomicU64::new(0),
            anneal_backend: None,
            executor: None,
            latency: Default::default(),
        }
    }

    /// Sets the server-wide default for per-request tree parallelism
    /// (`0` = all cores). Requests may override it per call with their
    /// own `threads` field; either way the intra-request pool composes
    /// multiplicatively with the server's request workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The per-request thread default (unresolved; `0` = all cores).
    #[must_use]
    pub fn default_threads(&self) -> usize {
        self.threads
    }

    /// The shared block cache.
    #[must_use]
    pub fn cache(&self) -> &SharedBlockCache {
        &self.cache
    }

    /// Requests executed so far (any method).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The server-lifetime metrics registry: every `optimize` request's
    /// drained trace summary is absorbed here, so its counters are
    /// exactly the sum of the per-reply `trace_summary` objects.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Sets the admission limit: at most `max_inflight` jobs may be
    /// queued or executing at once; beyond it, submissions are shed
    /// with [`STATUS_OVERLOADED`]. `0` (the default) disables the limit.
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: u64) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// The admission limit in force (`0` = unlimited).
    #[must_use]
    pub fn max_inflight(&self) -> u64 {
        self.max_inflight
    }

    /// Jobs currently admitted and not yet finished.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Requests shed with [`STATUS_OVERLOADED`] so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Wirelength-aware `optimize` requests served so far.
    #[must_use]
    pub fn netlist_requests(&self) -> u64 {
        self.netlist_requests.load(Ordering::Relaxed)
    }

    /// `pareto` requests served so far.
    #[must_use]
    pub fn pareto_requests(&self) -> u64 {
        self.pareto_requests.load(Ordering::Relaxed)
    }

    /// Non-dominated points returned across all `pareto` replies.
    #[must_use]
    pub fn pareto_points(&self) -> u64 {
        self.pareto_points.load(Ordering::Relaxed)
    }

    /// `anneal` requests served so far.
    #[must_use]
    pub fn anneal_requests(&self) -> u64 {
        self.anneal_requests.load(Ordering::Relaxed)
    }

    /// Injects the multi-start annealing implementation. The protocol
    /// crate cannot depend on the annealer (the annealer's inner loop
    /// is this crate's optimizer), so the server binary registers the
    /// search here; without one, `anneal` requests are rejected with
    /// [`STATUS_BAD_REQUEST`].
    #[must_use]
    pub fn with_anneal_backend(mut self, backend: Arc<AnnealBackend>) -> Self {
        self.anneal_backend = Some(backend);
        self
    }

    /// Attaches the job executor the server schedules onto. Stats and
    /// metrics then report its queue/active gauges, anneal chains run
    /// on its pool, and optimize runs lease spare workers from it for
    /// intra-request tree parallelism. The *echoed* `threads` in
    /// replies stays request-resolved — leasing changes speed, never
    /// bytes.
    #[must_use]
    pub fn with_executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The attached executor, if any.
    #[must_use]
    pub fn executor(&self) -> Option<&Arc<Executor>> {
        self.executor.as_ref()
    }

    /// Records one served request's wall time under its method class.
    fn observe_latency(&self, kind: MethodKind, elapsed: Duration) {
        self.latency[kind as usize].observe(elapsed);
    }

    /// The per-method latency digest as a JSON object:
    /// `{"optimize": {"count":…,"p50_ms":…,"p99_ms":…,"p999_ms":…,"max_ms":…}, …}`.
    /// Quantiles are bucket upper bounds (conservative, never below
    /// the true quantile until the overflow bucket).
    #[must_use]
    pub fn latency_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (kind, name)) in MethodKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{}",
                self.latency[*kind as usize].to_json()
            ));
        }
        out.push('}');
        out
    }

    /// Tries to admit one job. `true` reserves an in-flight slot the
    /// caller must release with [`ServeState::finish_job`] exactly once;
    /// `false` means the server is at its limit and the caller should
    /// shed the request (see [`shed_reply`]).
    #[must_use]
    pub fn try_admit(&self) -> bool {
        if self.max_inflight == 0 {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // CAS loop: never exceed the limit even under racing admits.
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current >= self.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Releases an in-flight slot reserved by a successful
    /// [`ServeState::try_admit`] (whether the job executed or was shed
    /// at dequeue by its queue deadline).
    pub fn finish_job(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one shed request (the caller already rendered the
    /// [`STATUS_OVERLOADED`] reply).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// The full Prometheus exposition for this server: the metrics
    /// registry's run counters plus cache, persistence, and overload
    /// gauges — what `fpserved` serves at `GET /metrics`. A warm
    /// restart shows up here as nonzero `fp_cache_recovered_entries`
    /// and an immediately high hit rate.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = self.metrics.render_prometheus();
        let cache = &self.cache;
        let stats = cache.stats();
        let mut gauge = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge("fp_cache_hits_total", "Block cache hits", stats.hits);
        gauge("fp_cache_misses_total", "Block cache misses", stats.misses);
        gauge(
            "fp_cache_insertions_total",
            "Block cache insertions",
            stats.insertions,
        );
        gauge(
            "fp_cache_evictions_total",
            "Block cache evictions",
            stats.evictions,
        );
        gauge("fp_cache_entries", "Live cached blocks", cache.len() as u64);
        gauge(
            "fp_cache_bytes",
            "Cached bytes in memory",
            cache.bytes() as u64,
        );
        gauge(
            "fp_cache_recovered_entries",
            "Entries replayed from the persistent store at startup",
            cache.recovery().recovered_entries as u64,
        );
        if let Some(persist) = cache.persist_stats() {
            gauge(
                "fp_cache_persist_appended_records_total",
                "Records appended to the segment log",
                persist.appended_records,
            );
            gauge(
                "fp_cache_persist_io_errors_total",
                "Segment log I/O errors",
                persist.io_errors,
            );
            gauge(
                "fp_cache_persist_wedged",
                "1 when the log writer has stopped (in-memory service continues)",
                u64::from(persist.wedged),
            );
        }
        gauge(
            "fp_server_inflight_jobs",
            "Jobs admitted and not yet finished",
            self.inflight(),
        );
        gauge(
            "fp_server_shed_total",
            "Requests shed with the overloaded status",
            self.shed(),
        );
        gauge(
            "fp_netlist_requests_total",
            "Wirelength-aware optimize requests served",
            self.netlist_requests(),
        );
        gauge(
            "fp_netlist_pareto_requests_total",
            "Pareto-front requests served",
            self.pareto_requests(),
        );
        gauge(
            "fp_netlist_pareto_points_total",
            "Non-dominated points returned across pareto replies",
            self.pareto_points(),
        );
        gauge(
            "fp_server_anneal_requests_total",
            "Multi-start annealing requests served",
            self.anneal_requests(),
        );
        if let Some(exec) = self.executor() {
            gauge(
                "fp_exec_threads",
                "Worker threads in the job executor",
                exec.threads() as u64,
            );
            gauge(
                "fp_exec_queue_depth",
                "Jobs queued in the executor and not yet started",
                exec.queue_depth() as u64,
            );
            gauge(
                "fp_exec_active_jobs",
                "Jobs the executor is running right now",
                exec.active() as u64,
            );
            gauge(
                "fp_exec_completed_total",
                "Jobs the executor has finished",
                exec.completed(),
            );
            gauge(
                "fp_exec_shed_total",
                "Jobs shed at the executor level",
                exec.shed_total(),
            );
        }
        out.push_str("# TYPE fp_server_request_duration_seconds histogram\n");
        for (kind, name) in MethodKind::ALL {
            self.latency[kind as usize].render_prometheus(
                "fp_server_request_duration_seconds",
                name,
                &mut out,
            );
        }
        out
    }
}

/// A rendered response line plus its routing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The response document (no trailing newline).
    pub json: String,
    /// The response's status code.
    pub status: u8,
    /// `true` when the request asked the server to drain and stop.
    pub shutdown: bool,
}

fn response_head(id: Option<&RequestId>, line_no: u64, status: u8) -> JsonObj {
    let mut obj = JsonObj::new();
    if let Some(id) = id {
        obj.raw("id", &id.to_json());
    }
    obj.u64("line", line_no);
    obj.u64("status", u64::from(status));
    obj
}

/// Renders the error response for an unparsable or invalid request line.
#[must_use]
pub fn error_reply(line_no: u64, error: &RequestError) -> Reply {
    let mut obj;
    match error {
        RequestError::Json(e) => {
            obj = response_head(None, line_no, STATUS_BAD_REQUEST);
            obj.u64("col", e.col as u64);
            obj.str("error", &format!("bad JSON: {}", e.message));
        }
        RequestError::Bad(id, message) => {
            obj = response_head(id.as_ref(), line_no, STATUS_BAD_REQUEST);
            obj.str("error", message);
        }
        RequestError::UnsupportedProto(id, requested) => {
            obj = response_head(id.as_ref(), line_no, STATUS_BAD_REQUEST);
            obj.u64("proto", PROTO_VERSION);
            obj.u64("requested_proto", *requested);
            obj.str(
                "error",
                &format!(
                    "unsupported protocol version {requested} (this server speaks proto {PROTO_VERSION})"
                ),
            );
        }
    }
    Reply {
        json: obj.finish(),
        status: STATUS_BAD_REQUEST,
        shutdown: false,
    }
}

/// Extracts the request id from a raw line best-effort, for replies
/// built without fully parsing the request (shed / timed-out lines).
fn best_effort_id(line: &str) -> Option<RequestId> {
    match parse_json(line).ok()?.get("id")? {
        Json::Num(n) => Some(RequestId::Num(*n)),
        Json::Str(s) => Some(RequestId::Str(s.clone())),
        _ => None,
    }
}

/// Renders the structured [`STATUS_OVERLOADED`] reply for a request the
/// server sheds instead of queueing. The raw line is parsed best-effort
/// only to echo its `id`; the request was never executed, so the client
/// may safely retry after backing off. `reason` is a short machine-
/// readable tag (`"queue_full"`, `"queue_deadline"`).
#[must_use]
pub fn shed_reply(line: &str, line_no: u64, reason: &str) -> Reply {
    let id = best_effort_id(line);
    let mut obj = response_head(id.as_ref(), line_no, STATUS_OVERLOADED);
    obj.bool("overloaded", true);
    obj.str("reason", reason);
    obj.str("error", "server overloaded; request shed before execution");
    Reply {
        json: obj.finish(),
        status: STATUS_OVERLOADED,
        shutdown: false,
    }
}

/// Renders the clean status reply a connection receives when it sat
/// idle past the server's read deadline. Informational: no request was
/// in flight, the server is simply reclaiming the connection.
#[must_use]
pub fn idle_timeout_reply(idle_ms: u64) -> Reply {
    let mut obj = JsonObj::new();
    obj.u64("status", u64::from(STATUS_BAD_REQUEST));
    obj.str("timeout", "idle");
    obj.u64("idle_ms", idle_ms);
    obj.str("error", "connection idle past the read deadline; closing");
    Reply {
        json: obj.finish(),
        status: STATUS_BAD_REQUEST,
        shutdown: false,
    }
}

fn load_serve_instance(req: &OptimizeRequest) -> Result<FloorplanInstance, Reply> {
    // Reply here is a template without id/line; callers re-head it.
    if let Some(name) = &req.builtin {
        let bench = match name.trim_start_matches('@') {
            "fig1" => generators::fig1(),
            "fp1" => generators::fp1(),
            "fp2" => generators::fp2(),
            "fp3" => generators::fp3(),
            "fp4" => generators::fp4(),
            "ami33" => {
                let (bench, library) = generators::ami33_like();
                return Ok(FloorplanInstance {
                    name: bench.name,
                    tree: bench.tree,
                    library,
                });
            }
            "ami49" => {
                let (bench, library) = generators::ami49_like();
                return Ok(FloorplanInstance {
                    name: bench.name,
                    tree: bench.tree,
                    library,
                });
            }
            other => {
                let mut obj = JsonObj::new();
                obj.str(
                    "error",
                    &format!("unknown builtin `{other}` (fig1, fp1..fp4, ami33, ami49)"),
                );
                return Err(Reply {
                    json: obj.finish(),
                    status: STATUS_BAD_INPUT,
                    shutdown: false,
                });
            }
        };
        let library = generators::module_library(&bench.tree, req.n, req.seed);
        Ok(FloorplanInstance {
            name: bench.name,
            tree: bench.tree,
            library,
        })
    } else if let Some(text) = &req.instance {
        parse_instance(text).map_err(|e| {
            let mut obj = JsonObj::new();
            obj.u64("instance_line", e.line as u64);
            obj.u64("instance_col", e.col as u64);
            obj.str("error", &format!("bad instance: {e}"));
            Reply {
                json: obj.finish(),
                status: STATUS_BAD_INPUT,
                shutdown: false,
            }
        })
    } else {
        let mut obj = JsonObj::new();
        obj.str("error", "`optimize` needs `builtin` or `instance`");
        Err(Reply {
            json: obj.finish(),
            status: STATUS_BAD_REQUEST,
            shutdown: false,
        })
    }
}

/// Loads the request's netlist (inline `.fpn` or generated), if any.
/// The error is a reply template without id/line, like
/// [`load_serve_instance`]'s.
fn load_serve_netlist(
    req: &OptimizeRequest,
    instance: &FloorplanInstance,
) -> Result<Option<Netlist>, Reply> {
    if let Some(text) = &req.netlist {
        parse_netlist(text).map(Some).map_err(|e| {
            let mut obj = JsonObj::new();
            obj.u64("netlist_line", e.line as u64);
            obj.u64("netlist_col", e.col as u64);
            obj.str("error", &format!("bad netlist: {e}"));
            Reply {
                json: obj.finish(),
                status: STATUS_BAD_INPUT,
                shutdown: false,
            }
        })
    } else if let Some(nets) = req.nets {
        Ok(Some(random_netlist(&instance.library, nets, req.net_seed)))
    } else {
        Ok(None)
    }
}

fn bad_netlist_reply(message: String) -> Reply {
    let mut obj = JsonObj::new();
    obj.str("error", &message);
    Reply {
        json: obj.finish(),
        status: STATUS_BAD_INPUT,
        shutdown: false,
    }
}

/// Re-heads a reply template (error body without id/line) with the
/// response envelope.
fn rehead(id: Option<&RequestId>, line_no: u64, template: &Reply) -> Reply {
    let mut obj = response_head(id, line_no, template.status);
    let inner = template
        .json
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_default();
    if !inner.is_empty() {
        obj.raw_members(inner);
    }
    Reply {
        json: obj.finish(),
        status: template.status,
        shutdown: false,
    }
}

fn config_for(
    req: &OptimizeRequest,
    cancel: Option<CancelToken>,
    default_threads: usize,
) -> OptimizeConfig {
    let mut config = OptimizeConfig::default()
        .with_objective(req.objective)
        .with_auto_rescue(req.auto_rescue)
        .with_threads(req.threads.unwrap_or(default_threads))
        .with_cancel(cancel);
    if let Some(outline) = req.outline {
        config = config.with_outline(outline);
    }
    if let Some(limit) = req.memory {
        config = config.with_memory_limit(Some(limit));
    }
    if let Some(ms) = req.deadline_ms {
        config = config.with_deadline(Some(Duration::from_millis(ms)));
    }
    if let Some(k1) = req.k1 {
        config = config.with_r_selection(k1);
    }
    if let Some(k2) = req.k2 {
        let mut policy = LReductionPolicy::new(k2).with_theta(req.theta);
        if let Some(s) = req.prefilter {
            policy = policy.with_prefilter(s);
        }
        config = config.with_l_selection(policy);
    }
    config
}

/// A reply's config, resolved once for its tree.
struct ReplyConfig {
    /// Spare executor threads held for the run; dropping it returns them.
    _lease: Option<Lease>,
    /// The config the run executes with.
    run: OptimizeConfig,
    /// The request-resolved config the reply echoes.
    echoed: OptimizeConfig,
    /// Whether the tree's size resolved the request to the serial path.
    auto_serial: bool,
}

/// Resolves `config` for `tree`. With an executor attached,
/// intra-request tree parallelism is leased from its spare capacity:
/// the run may execute on fewer threads than requested when the pool is
/// busy, but the echoed `threads`/`auto_serial` stay request-resolved —
/// results are byte-identical at any thread count, so leasing changes
/// speed only.
fn reply_config(config: OptimizeConfig, tree: &FloorplanTree, state: &ServeState) -> ReplyConfig {
    let echoed = config.resolve_for(tree);
    let auto_serial = config.auto_serial_for(tree.module_count());
    let lease = state
        .executor()
        .map(|exec| exec.lease(echoed.threads.saturating_sub(1)));
    let run = match &lease {
        Some(lease) => config.with_threads(echoed.threads.min(1 + lease.granted())),
        None => config,
    };
    ReplyConfig {
        _lease: lease,
        run,
        echoed,
        auto_serial,
    }
}

fn optimize_reply(
    id: Option<&RequestId>,
    line_no: u64,
    req: &OptimizeRequest,
    state: &ServeState,
    cancel: Option<CancelToken>,
) -> Reply {
    let instance = match load_serve_instance(req) {
        Ok(instance) => instance,
        Err(template) => return rehead(id, line_no, &template),
    };
    let netlist = match load_serve_netlist(req, &instance) {
        Ok(netlist) => netlist,
        Err(template) => return rehead(id, line_no, &template),
    };
    let bound = match &netlist {
        Some(netlist) => match netlist.bind(&instance.library) {
            Ok(bound) => Some(bound),
            Err(e) => {
                return rehead(
                    id,
                    line_no,
                    &bad_netlist_reply(format!("netlist does not bind the instance: {e}")),
                )
            }
        },
        None => None,
    };
    let mut config = config_for(req, cancel, state.default_threads());
    if let Some(netlist) = &netlist {
        // Wirelength-aware results never share cache addresses with
        // area-only runs of the same policy.
        config = config.with_extra_salt(netlist_fingerprint(netlist));
    }
    let resolved = reply_config(config, &instance.tree, state);
    // Every optimize request runs under a subscribed tracer: the drained
    // summary feeds the reply's `trace_summary` and the server-lifetime
    // metrics registry (so the two always reconcile).
    let tracer = Tracer::new();
    let optimizer = Optimizer::new(&instance.tree, &instance.library)
        .config(&resolved.run)
        .cache(state.cache())
        .tracer(&tracer);
    let result = match &bound {
        Some(bound) => {
            state.netlist_requests.fetch_add(1, Ordering::Relaxed);
            let objective = match (req.max_hpwl, req.alpha) {
                (Some(max_hpwl), _) => CompositeObjective::epsilon(u128::from(max_hpwl)),
                (None, alpha) => CompositeObjective::weighted(alpha.unwrap_or(1.0)),
            };
            optimizer.run_composite(bound, objective).map(|multi| {
                let rescued = !multi.outcome.stats.degradations.is_empty();
                (
                    RunOutcome {
                        outcome: multi.outcome,
                        rescued,
                    },
                    Some(multi.hpwl),
                )
            })
        }
        None => optimizer.run().map(|run| (run, None)),
    };
    let summary = tracer.drain().summary();
    state.metrics().absorb(&summary);
    match result {
        Ok((RunOutcome { outcome, rescued }, hpwl)) => {
            let mut obj = response_head(id, line_no, STATUS_OK);
            obj.str("instance", &instance.name);
            obj.u64("threads", resolved.echoed.threads as u64);
            obj.bool("auto_serial", resolved.auto_serial);
            // The L-reduction always runs on the run's own threads; the
            // key stays so replies keep their bytes.
            if resolved.echoed.l_policy.is_some() {
                obj.u64("lred_workers", 1);
            }
            obj.u128("area", outcome.area);
            obj.u64("width", outcome.root_impl.w);
            obj.u64("height", outcome.root_impl.h);
            if let Some(hpwl) = hpwl {
                obj.u128("hpwl", hpwl);
                if let Some(max_hpwl) = req.max_hpwl {
                    obj.u64("max_hpwl", max_hpwl);
                } else {
                    obj.raw("alpha", &format!("{}", req.alpha.unwrap_or(1.0)));
                }
            }
            obj.u64("elapsed_ms", outcome.stats.elapsed.as_millis() as u64);
            obj.u64("peak_impls", outcome.stats.peak_impls as u64);
            obj.u64("generated", outcome.stats.generated);
            obj.u64("cache_hits", outcome.stats.cache_hits as u64);
            obj.u64("cache_misses", outcome.stats.cache_misses as u64);
            obj.bool("rescued", rescued);
            obj.u64("degradations", outcome.stats.degradations.len() as u64);
            if req.layout {
                // Realize the winning assignment and polygonize its dead
                // space. Realization can only fail on instances the run
                // itself would have rejected; surface that as a field
                // rather than panicking.
                let mut section = JsonObj::new();
                match fp_tree::layout::realize(
                    &instance.tree,
                    &instance.library,
                    &outcome.assignment,
                ) {
                    Ok(layout) => {
                        // One strip decomposition serves both the
                        // whitespace figures and the outline count.
                        let poly = layout.polygonize();
                        let ws = &poly.whitespace;
                        section.u128("dead_space", layout.dead_space());
                        section.u64("whitespace_regions", ws.count() as u64);
                        section.u128("whitespace_total", ws.total);
                        section.u128("whitespace_largest", ws.largest());
                        let mut areas = String::from("[");
                        for (i, region) in ws.regions.iter().enumerate() {
                            if i > 0 {
                                areas.push(',');
                            }
                            areas.push_str(&region.area.to_string());
                        }
                        areas.push(']');
                        section.raw("region_areas", &areas);
                        section.u64("outline_rings", poly.outlines.len() as u64);
                    }
                    Err(e) => {
                        section.str("error", &format!("layout did not realize: {e}"));
                    }
                }
                obj.raw("layout", &section.finish());
            }
            obj.raw("trace_summary", &summary.to_json());
            Reply {
                json: obj.finish(),
                status: STATUS_OK,
                shutdown: false,
            }
        }
        Err(e) => {
            let status = status_for(&e);
            let mut obj = response_head(id, line_no, status);
            obj.str("error", &e.to_string());
            obj.raw("trace_summary", &summary.to_json());
            Reply {
                json: obj.finish(),
                status,
                shutdown: false,
            }
        }
    }
}

fn pareto_reply(
    id: Option<&RequestId>,
    line_no: u64,
    req: &OptimizeRequest,
    state: &ServeState,
    cancel: Option<CancelToken>,
) -> Reply {
    let instance = match load_serve_instance(req) {
        Ok(instance) => instance,
        Err(template) => return rehead(id, line_no, &template),
    };
    let netlist = match load_serve_netlist(req, &instance) {
        Ok(Some(netlist)) => netlist,
        Ok(None) => {
            return rehead(
                id,
                line_no,
                &bad_netlist_reply("`pareto` needs `netlist` or `nets`".to_owned()),
            )
        }
        Err(template) => return rehead(id, line_no, &template),
    };
    let bound = match netlist.bind(&instance.library) {
        Ok(bound) => bound,
        Err(e) => {
            return rehead(
                id,
                line_no,
                &bad_netlist_reply(format!("netlist does not bind the instance: {e}")),
            )
        }
    };
    let config = config_for(req, cancel, state.default_threads())
        .with_extra_salt(netlist_fingerprint(&netlist));
    let resolved = reply_config(config, &instance.tree, state);
    let tracer = Tracer::new();
    let result = Optimizer::new(&instance.tree, &instance.library)
        .config(&resolved.run)
        .cache(state.cache())
        .tracer(&tracer)
        .run_pareto(&bound);
    let summary = tracer.drain().summary();
    state.metrics().absorb(&summary);
    state.pareto_requests.fetch_add(1, Ordering::Relaxed);
    match result {
        Ok(pareto) => {
            state
                .pareto_points
                .fetch_add(pareto.front.len() as u64, Ordering::Relaxed);
            // Hypervolume against a reference 10% beyond the worst
            // front point on each axis (deterministic, scale-free).
            let ref_area = pareto.front.iter().map(|p| p.area).max().unwrap_or(0) * 11 / 10 + 1;
            let ref_hpwl = pareto.front.iter().map(|p| p.hpwl).max().unwrap_or(0) * 11 / 10 + 1;
            let hv = hypervolume(&pareto.front, ref_area, ref_hpwl);
            let mut front_json = String::from("[");
            for (i, p) in pareto.front.iter().enumerate() {
                if i > 0 {
                    front_json.push(',');
                }
                let mut point = JsonObj::new();
                point.u64("index", p.index as u64);
                point.u64("width", p.width);
                point.u64("height", p.height);
                point.u128("area", p.area);
                point.u128("hpwl", p.hpwl);
                point.bool("fits", p.fits);
                front_json.push_str(&point.finish());
            }
            front_json.push(']');
            let mut obj = response_head(id, line_no, STATUS_OK);
            obj.str("instance", &instance.name);
            obj.u64("threads", resolved.echoed.threads as u64);
            obj.bool("auto_serial", resolved.auto_serial);
            obj.u64("front_size", pareto.front.len() as u64);
            obj.u64("evaluated", pareto.evaluated as u64);
            obj.raw("front", &front_json);
            obj.raw("hypervolume", &format!("{hv:.6}"));
            obj.raw("trace_summary", &summary.to_json());
            Reply {
                json: obj.finish(),
                status: STATUS_OK,
                shutdown: false,
            }
        }
        Err(e) => {
            let status = status_for(&e);
            let mut obj = response_head(id, line_no, status);
            obj.str("error", &e.to_string());
            obj.raw("trace_summary", &summary.to_json());
            Reply {
                json: obj.finish(),
                status,
                shutdown: false,
            }
        }
    }
}

fn anneal_reply(
    id: Option<&RequestId>,
    line_no: u64,
    req: &AnnealRequest,
    state: &ServeState,
) -> Reply {
    let Some(backend) = state.anneal_backend.clone() else {
        let mut obj = JsonObj::new();
        obj.str(
            "error",
            "this server has no annealing backend registered (`anneal` unsupported)",
        );
        let template = Reply {
            json: obj.finish(),
            status: STATUS_BAD_REQUEST,
            shutdown: false,
        };
        return rehead(id, line_no, &template);
    };
    let instance = match load_serve_instance(&req.base) {
        Ok(instance) => instance,
        Err(template) => return rehead(id, line_no, &template),
    };
    // Chains parallelize at the job level on the executor; the inner
    // optimizer keeps the request's own thread setting. No cancel
    // token: annealing jobs run to completion (`deadline_ms` is
    // rejected at parse time).
    let config = config_for(&req.base, None, state.default_threads());
    let started = Instant::now();
    let job = AnnealJob {
        library: &instance.library,
        chains: req.chains,
        moves: req.moves,
        seed: req.anneal_seed,
        optimizer: config,
        cache: state.cache(),
        executor: state.executor().map(|e| &**e),
    };
    let outcome = backend(&job);
    state.anneal_requests.fetch_add(1, Ordering::Relaxed);
    let mut chain_areas = String::from("[");
    for (i, area) in outcome.chain_areas.iter().enumerate() {
        if i > 0 {
            chain_areas.push(',');
        }
        chain_areas.push_str(&area.to_string());
    }
    chain_areas.push(']');
    let mut obj = response_head(id, line_no, STATUS_OK);
    obj.str("instance", &instance.name);
    obj.u64("chains", req.chains as u64);
    obj.u64("moves", req.moves as u64);
    obj.u64("anneal_seed", req.anneal_seed);
    obj.u128("area", outcome.best_area);
    obj.u128("initial_area", outcome.initial_area);
    obj.u64("best_chain", outcome.best_chain as u64);
    obj.raw("chain_areas", &chain_areas);
    obj.u64("accepted", outcome.accepted);
    obj.u64("proposed", outcome.proposed);
    obj.str("expression", &outcome.expression);
    obj.u64("elapsed_ms", started.elapsed().as_millis() as u64);
    Reply {
        json: obj.finish(),
        status: STATUS_OK,
        shutdown: false,
    }
}

impl JsonObj {
    /// Splices pre-serialized members (used to re-head reply templates).
    pub fn raw_members(&mut self, members: &str) -> &mut Self {
        if !self.buf.is_empty() && !members.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(members);
        self
    }
}

/// Executes a parsed request. `cancel` is the per-request cancellation
/// token the server's deadline watchdog fires; the request's own
/// `deadline_ms` is additionally enforced by the governor's wall clock
/// from run start.
#[must_use]
pub fn execute(
    request: &Request,
    line_no: u64,
    state: &ServeState,
    cancel: Option<CancelToken>,
) -> Reply {
    let started = Instant::now();
    let kind = MethodKind::of(&request.method);
    let reply = execute_inner(request, line_no, state, cancel);
    state.observe_latency(kind, started.elapsed());
    reply
}

fn execute_inner(
    request: &Request,
    line_no: u64,
    state: &ServeState,
    cancel: Option<CancelToken>,
) -> Reply {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let id = request.id.as_ref();
    match &request.method {
        Method::Ping => {
            let mut obj = response_head(id, line_no, STATUS_OK);
            obj.u64("proto", PROTO_VERSION);
            obj.bool("pong", true);
            Reply {
                json: obj.finish(),
                status: STATUS_OK,
                shutdown: false,
            }
        }
        Method::Stats => {
            let cache = state.cache();
            let stats = cache.stats();
            let (bytes, entries, budget) = (cache.bytes(), cache.len(), cache.budget_bytes());
            let mut obj = response_head(id, line_no, STATUS_OK);
            obj.u64("proto", PROTO_VERSION);
            obj.u64("requests", state.requests());
            obj.u64("netlist_requests", state.netlist_requests());
            obj.u64("pareto_requests", state.pareto_requests());
            obj.u64("pareto_points", state.pareto_points());
            obj.u64(
                "threads",
                OptimizeConfig::default()
                    .with_threads(state.default_threads())
                    .resolved_threads() as u64,
            );
            obj.u64("cache_hits", stats.hits);
            obj.u64("cache_misses", stats.misses);
            obj.u64("cache_evictions", stats.evictions);
            obj.u64("cache_insertions", stats.insertions);
            obj.u64("cache_entries", entries as u64);
            obj.u64("cache_bytes", bytes as u64);
            obj.u64("cache_budget_bytes", budget as u64);
            obj.bool("cache_persistent", cache.is_persistent());
            obj.u64(
                "cache_recovered_entries",
                cache.recovery().recovered_entries as u64,
            );
            if let Some(persist) = cache.persist_stats() {
                obj.u64("persist_appended_records", persist.appended_records);
                obj.u64("persist_rotations", persist.rotations);
                obj.u64("persist_compactions", persist.compactions);
                obj.u64("persist_io_errors", persist.io_errors);
                obj.u64("persist_dropped_records", persist.dropped_records);
                obj.bool("persist_wedged", persist.wedged);
            }
            obj.u64("inflight", state.inflight());
            obj.u64("max_inflight", state.max_inflight());
            obj.u64("shed", state.shed());
            obj.u64("anneal_requests", state.anneal_requests());
            if let Some(exec) = state.executor() {
                obj.u64("exec_threads", exec.threads() as u64);
                obj.u64("exec_queue_depth", exec.queue_depth() as u64);
                obj.u64("exec_active", exec.active() as u64);
                obj.u64("exec_completed", exec.completed());
                obj.u64("exec_shed", exec.shed_total());
            }
            obj.raw("latency", &state.latency_json());
            Reply {
                json: obj.finish(),
                status: STATUS_OK,
                shutdown: false,
            }
        }
        Method::Metrics => {
            let snapshot = state.metrics().snapshot();
            let mut obj = response_head(id, line_no, STATUS_OK);
            obj.u64("runs", snapshot.runs);
            obj.raw("totals", &snapshot.totals.to_json());
            obj.str("prometheus", &state.render_prometheus());
            Reply {
                json: obj.finish(),
                status: STATUS_OK,
                shutdown: false,
            }
        }
        Method::Shutdown => {
            let mut obj = response_head(id, line_no, STATUS_OK);
            obj.bool("draining", true);
            Reply {
                json: obj.finish(),
                status: STATUS_OK,
                shutdown: true,
            }
        }
        Method::Optimize(req) => optimize_reply(id, line_no, req, state, cancel),
        Method::Pareto(req) => pareto_reply(id, line_no, req, state, cancel),
        Method::Anneal(req) => anneal_reply(id, line_no, req, state),
    }
}

/// Parses and executes one raw request line — the single entry point the
/// server workers and the CLI `--session` replay mode share.
#[must_use]
pub fn handle_line(
    line: &str,
    line_no: u64,
    state: &ServeState,
    cancel: Option<CancelToken>,
) -> Reply {
    match parse_request(line) {
        Ok(request) => execute(&request, line_no, state, cancel),
        Err(e) => error_reply(line_no, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_basics() {
        let doc = parse_json(r#"{"a": 1, "b": [true, null, "x\n"], "c": -2.5}"#).expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("c").and_then(Json::as_f64), Some(-2.5));
        match doc.get("b") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].as_bool(), Some(true));
                assert_eq!(items[2].as_str(), Some("x\n"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn json_errors_carry_columns() {
        let e = parse_json(r#"{"a": }"#).expect_err("bad");
        assert_eq!(e.col, 7);
        let e = parse_json("{\"a\": 1,}").expect_err("bad");
        assert_eq!(e.col, 9);
        let e = parse_json("nul").expect_err("bad");
        assert_eq!(e.col, 1);
        let e = parse_json("{\"a\": 1} trailing").expect_err("bad");
        assert_eq!(e.col, 10);
    }

    #[test]
    fn request_parsing_and_validation() {
        let req = parse_request(r#"{"id": 7, "method": "ping"}"#).expect("valid");
        assert_eq!(req.id, Some(RequestId::Num(7.0)));
        assert_eq!(req.method, Method::Ping);

        let req = parse_request(
            r#"{"method": "optimize", "builtin": "fp1", "k1": 8, "deadline_ms": 50}"#,
        )
        .expect("valid");
        match req.method {
            Method::Optimize(o) => {
                assert_eq!(o.builtin.as_deref(), Some("fp1"));
                assert_eq!(o.k1, Some(8));
                assert_eq!(o.deadline_ms, Some(50));
            }
            other => panic!("unexpected {other:?}"),
        }

        match parse_request(r#"{"method": "frobnicate"}"#) {
            Err(RequestError::Bad(_, msg)) => assert!(msg.contains("unknown method")),
            other => panic!("unexpected {other:?}"),
        }
        match parse_request(r#"{"method": "optimize"}"#) {
            Err(RequestError::Bad(_, msg)) => assert!(msg.contains("builtin")),
            other => panic!("unexpected {other:?}"),
        }
        match parse_request("{\"method\": \"ping\"") {
            Err(RequestError::Json(e)) => assert!(e.col > 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn end_to_end_optimize_reply_and_cache_reuse() {
        let state = ServeState::new(64 << 20);
        let line = r#"{"id": 1, "method": "optimize", "builtin": "fig1", "n": 4}"#;
        let cold = handle_line(line, 1, &state, None);
        assert_eq!(cold.status, STATUS_OK, "{}", cold.json);
        assert!(cold.json.contains("\"area\":"));
        let warm = handle_line(line, 2, &state, None);
        assert_eq!(warm.status, STATUS_OK);
        // Same request: every join served from cache on the warm pass.
        assert!(warm.json.contains("\"cache_misses\":0"), "{}", warm.json);
        // Identical results either way.
        let area = |json: &str| {
            json.split("\"area\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .map(str::to_owned)
        };
        assert_eq!(area(&cold.json), area(&warm.json));
    }

    #[test]
    fn protocol_version_negotiation() {
        // Omitted `proto` defaults to v1; explicit v1 is identical.
        assert_eq!(
            parse_request(r#"{"method": "ping"}"#).expect("valid").proto,
            PROTO_VERSION
        );
        let pinned = parse_request(r#"{"id": 1, "proto": 1, "method": "ping"}"#).expect("valid");
        assert_eq!(pinned.proto, 1);
        // Unknown versions get a structured status-2 reply naming both
        // versions.
        let err = parse_request(r#"{"id": 9, "proto": 2, "method": "ping"}"#).expect_err("v2");
        assert_eq!(
            err,
            RequestError::UnsupportedProto(Some(RequestId::Num(9.0)), 2)
        );
        let reply = error_reply(4, &err);
        assert_eq!(reply.status, STATUS_BAD_REQUEST);
        assert!(reply.json.contains("\"id\":9"), "{}", reply.json);
        assert!(reply.json.contains("\"proto\":1"), "{}", reply.json);
        assert!(
            reply.json.contains("\"requested_proto\":2"),
            "{}",
            reply.json
        );
        // Malformed `proto` values are plain bad requests.
        for line in [
            r#"{"proto": 0, "method": "ping"}"#,
            r#"{"proto": -1, "method": "ping"}"#,
            r#"{"proto": "one", "method": "ping"}"#,
        ] {
            assert!(
                matches!(parse_request(line), Err(RequestError::Bad(_, _))),
                "{line}"
            );
        }
    }

    #[test]
    fn ping_and_stats_echo_proto() {
        let state = ServeState::new(1 << 20);
        let pong = handle_line(r#"{"id": 1, "method": "ping"}"#, 1, &state, None);
        assert_eq!(pong.status, STATUS_OK);
        assert!(pong.json.contains("\"proto\":1"), "{}", pong.json);
        assert!(pong.json.contains("\"pong\":true"), "{}", pong.json);
        let stats = handle_line(r#"{"method": "stats"}"#, 2, &state, None);
        assert!(stats.json.contains("\"proto\":1"), "{}", stats.json);
        // v1 pinned requests execute exactly like unpinned ones.
        let pinned = handle_line(
            r#"{"id": 1, "proto": 1, "method": "ping"}"#,
            1,
            &state,
            None,
        );
        assert_eq!(pinned.json, pong.json);
        // Unknown versions surface through the full line handler too.
        let v9 = handle_line(r#"{"proto": 9, "method": "ping"}"#, 3, &state, None);
        assert_eq!(v9.status, STATUS_BAD_REQUEST);
        assert!(v9.json.contains("\"requested_proto\":9"), "{}", v9.json);
    }

    #[test]
    fn layout_field_attaches_whitespace_analytics() {
        let state = ServeState::new(16 << 20);
        let line = r#"{"id": 1, "method": "optimize", "builtin": "fig1", "n": 4, "layout": true}"#;
        let reply = handle_line(line, 1, &state, None);
        assert_eq!(reply.status, STATUS_OK, "{}", reply.json);
        assert!(reply.json.contains("\"layout\":{"), "{}", reply.json);
        for field in [
            "\"dead_space\":",
            "\"whitespace_regions\":",
            "\"whitespace_total\":",
            "\"whitespace_largest\":",
            "\"region_areas\":[",
            "\"outline_rings\":",
        ] {
            assert!(
                reply.json.contains(field),
                "{field} missing: {}",
                reply.json
            );
        }
        // Without the flag the reply is unchanged (no layout section).
        let plain = handle_line(
            r#"{"id": 1, "method": "optimize", "builtin": "fig1", "n": 4}"#,
            2,
            &state,
            None,
        );
        assert!(!plain.json.contains("\"layout\""), "{}", plain.json);
        // `layout` rides `optimize` only.
        let pareto =
            parse_request(r#"{"method": "pareto", "builtin": "fig1", "nets": 5, "layout": true}"#);
        assert!(matches!(pareto, Err(RequestError::Bad(_, _))));
        let anneal = parse_request(r#"{"method": "anneal", "builtin": "fig1", "layout": true}"#);
        assert!(matches!(anneal, Err(RequestError::Bad(_, _))));
    }

    #[test]
    fn malformed_and_unknown_requests_report_positions() {
        let state = ServeState::new(1 << 20);
        let bad = handle_line("{\"method\": \"optimize\",, }", 3, &state, None);
        assert_eq!(bad.status, STATUS_BAD_REQUEST);
        assert!(bad.json.contains("\"line\":3"));
        assert!(bad.json.contains("\"col\":"));
        let unknown = handle_line(r#"{"id": "x", "method": "nope"}"#, 4, &state, None);
        assert_eq!(unknown.status, STATUS_BAD_REQUEST);
        assert!(unknown.json.contains("\"id\":\"x\""));
        assert!(unknown.json.contains("unknown method"));
    }

    #[test]
    fn bad_instance_reports_instance_position() {
        let state = ServeState::new(1 << 20);
        let line = r#"{"method": "optimize", "instance": "module a 0x3\ntree a"}"#;
        let reply = handle_line(line, 1, &state, None);
        assert_eq!(reply.status, STATUS_BAD_INPUT, "{}", reply.json);
        assert!(reply.json.contains("\"instance_line\":"), "{}", reply.json);
    }

    #[test]
    fn deadline_zero_trips_as_status_5() {
        let state = ServeState::new(1 << 20);
        let line = r#"{"method": "optimize", "builtin": "fp2", "n": 8, "deadline_ms": 0}"#;
        std::thread::sleep(Duration::from_millis(2));
        let reply = handle_line(line, 1, &state, None);
        assert_eq!(reply.status, STATUS_DEADLINE, "{}", reply.json);
    }

    #[test]
    fn cancelled_token_trips_as_status_5() {
        let state = ServeState::new(1 << 20);
        let token = CancelToken::new();
        token.cancel();
        let req = parse_request(r#"{"method": "optimize", "builtin": "fp1"}"#).expect("valid");
        let reply = execute(&req, 1, &state, Some(token));
        assert_eq!(reply.status, STATUS_DEADLINE, "{}", reply.json);
    }

    #[test]
    fn metrics_registry_reconciles_with_trace_summaries() {
        let state = ServeState::new(16 << 20);
        let line = r#"{"method": "optimize", "builtin": "fp1", "n": 6, "k1": 6}"#;
        let mut summed_joins = 0u64;
        let mut summed_hits = 0u64;
        let mut summed_selections = 0u64;
        for line_no in 1..=3 {
            let reply = handle_line(line, line_no, &state, None);
            assert_eq!(reply.status, STATUS_OK, "{}", reply.json);
            let doc = parse_json(&reply.json).expect("reply parses");
            let ts = doc.get("trace_summary").expect("reply has trace_summary");
            summed_joins += ts.get("joins").and_then(Json::as_u64).expect("joins");
            summed_hits += ts.get("cache_hits").and_then(Json::as_u64).expect("hits");
            for solver in ["selections_legacy", "selections_dense", "selections_monge"] {
                summed_selections += ts.get(solver).and_then(Json::as_u64).expect(solver);
            }
        }
        assert!(summed_joins > 0, "fp1 runs must trace join events");
        assert!(summed_selections > 0, "k1 runs must trace selections");
        assert!(summed_hits > 0, "warm repeats must trace cache hits");

        // The registry is the running sum of the per-reply summaries.
        let metrics = handle_line(r#"{"method": "metrics"}"#, 4, &state, None);
        assert_eq!(metrics.status, STATUS_OK, "{}", metrics.json);
        let doc = parse_json(&metrics.json).expect("metrics reply parses");
        assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(3));
        let totals = doc.get("totals").expect("metrics reply has totals");
        assert_eq!(
            totals.get("joins").and_then(Json::as_u64),
            Some(summed_joins)
        );
        assert_eq!(
            totals.get("cache_hits").and_then(Json::as_u64),
            Some(summed_hits)
        );
        let prom = doc
            .get("prometheus")
            .and_then(Json::as_str)
            .expect("metrics reply has a Prometheus rendering");
        assert!(prom.contains("fp_runs_total 3"), "{prom}");
        assert!(
            prom.contains(&format!("fp_joins_total {summed_joins}")),
            "{prom}"
        );
    }

    #[test]
    fn optimize_reply_echoes_effective_config() {
        let state = ServeState::new(1 << 20);
        let line = r#"{"method": "optimize", "builtin": "fig1", "n": 3, "k2": 9, "threads": 1}"#;
        let reply = handle_line(line, 1, &state, None);
        assert_eq!(reply.status, STATUS_OK, "{}", reply.json);
        assert!(reply.json.contains("\"threads\":1"), "{}", reply.json);
        assert!(reply.json.contains("\"lred_workers\":1,"), "{}", reply.json);
    }

    #[test]
    fn shutdown_flags_drain() {
        let state = ServeState::new(1 << 20);
        let reply = handle_line(r#"{"method": "shutdown"}"#, 9, &state, None);
        assert!(reply.shutdown);
        assert_eq!(reply.status, STATUS_OK);
        let stats = handle_line(r#"{"method": "stats"}"#, 10, &state, None);
        assert!(stats.json.contains("\"requests\":2"));
    }

    #[test]
    fn admission_control_enforces_the_limit() {
        let state = ServeState::new(1 << 20).with_max_inflight(2);
        assert!(state.try_admit());
        assert!(state.try_admit());
        assert!(!state.try_admit(), "third admit exceeds the limit");
        assert_eq!(state.inflight(), 2);
        state.finish_job();
        assert!(state.try_admit(), "a freed slot is reusable");
        state.finish_job();
        state.finish_job();
        assert_eq!(state.inflight(), 0);

        // Unlimited (the default) never sheds.
        let open = ServeState::new(1 << 20);
        for _ in 0..100 {
            assert!(open.try_admit());
        }
        assert_eq!(open.inflight(), 100);
    }

    #[test]
    fn shed_reply_is_structured_and_echoes_the_id() {
        let reply = shed_reply(r#"{"id": 42, "method": "optimize"}"#, 7, "queue_full");
        assert_eq!(reply.status, STATUS_OVERLOADED);
        assert!(!reply.shutdown);
        assert!(reply.json.contains("\"id\":42"), "{}", reply.json);
        assert!(reply.json.contains("\"status\":7"), "{}", reply.json);
        assert!(reply.json.contains("\"overloaded\":true"), "{}", reply.json);
        assert!(
            reply.json.contains("\"reason\":\"queue_full\""),
            "{}",
            reply.json
        );

        // Unparsable line: still a well-formed reply, just no id.
        let anon = shed_reply("not json at all", 8, "queue_deadline");
        assert_eq!(anon.status, STATUS_OVERLOADED);
        assert!(!anon.json.contains("\"id\""), "{}", anon.json);
        assert!(anon.json.contains("\"overloaded\":true"), "{}", anon.json);
    }

    #[test]
    fn idle_timeout_reply_names_the_deadline() {
        let reply = idle_timeout_reply(1500);
        assert!(
            reply.json.contains("\"timeout\":\"idle\""),
            "{}",
            reply.json
        );
        assert!(reply.json.contains("\"idle_ms\":1500"), "{}", reply.json);
        assert!(!reply.shutdown);
    }

    #[test]
    fn stats_and_prometheus_carry_overload_and_cache_gauges() {
        let state = ServeState::new(1 << 20).with_max_inflight(1);
        assert!(state.try_admit());
        assert!(!state.try_admit());
        state.note_shed();
        let stats = handle_line(r#"{"method": "stats"}"#, 1, &state, None);
        assert!(stats.json.contains("\"inflight\":1"), "{}", stats.json);
        assert!(stats.json.contains("\"max_inflight\":1"), "{}", stats.json);
        assert!(stats.json.contains("\"shed\":1"), "{}", stats.json);
        assert!(
            stats.json.contains("\"cache_persistent\":false"),
            "{}",
            stats.json
        );
        let prom = state.render_prometheus();
        assert!(prom.contains("fp_server_inflight_jobs 1"), "{prom}");
        assert!(prom.contains("fp_server_shed_total 1"), "{prom}");
        assert!(prom.contains("fp_cache_recovered_entries 0"), "{prom}");
        state.finish_job();
    }

    #[test]
    fn wirelength_optimize_reports_hpwl_and_counts_requests() {
        let state = ServeState::new(16 << 20);
        let line = r#"{"id": 1, "method": "optimize", "builtin": "fp1", "nets": 12, "alpha": 0.5}"#;
        let reply = handle_line(line, 1, &state, None);
        assert_eq!(reply.status, STATUS_OK, "{}", reply.json);
        assert!(reply.json.contains("\"hpwl\":"), "{}", reply.json);
        assert!(reply.json.contains("\"alpha\":0.5"), "{}", reply.json);
        // alpha = 1.0 with a netlist still reports HPWL, and the area
        // matches the area-only reply byte-for-byte.
        let pure = handle_line(
            r#"{"id": 2, "method": "optimize", "builtin": "fp1", "nets": 12, "alpha": 1.0}"#,
            2,
            &state,
            None,
        );
        assert_eq!(pure.status, STATUS_OK, "{}", pure.json);
        let plain = handle_line(
            r#"{"id": 3, "method": "optimize", "builtin": "fp1"}"#,
            3,
            &state,
            None,
        );
        let area = |json: &str| {
            json.split("\"area\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .map(str::to_owned)
        };
        assert_eq!(area(&pure.json), area(&plain.json));
        assert_eq!(state.netlist_requests.load(Ordering::Relaxed), 2);
        let prom = state.render_prometheus();
        assert!(prom.contains("fp_netlist_requests_total 2"), "{prom}");
    }

    #[test]
    fn pareto_reply_carries_a_nondominated_front() {
        let state = ServeState::new(16 << 20);
        let line = r#"{"id": 5, "method": "pareto", "builtin": "fp1", "nets": 15}"#;
        let reply = handle_line(line, 1, &state, None);
        assert_eq!(reply.status, STATUS_OK, "{}", reply.json);
        let doc = parse_json(&reply.json).expect("reply parses");
        let front = match doc.get("front") {
            Some(Json::Arr(points)) => points.clone(),
            other => panic!("unexpected front {other:?}"),
        };
        assert!(!front.is_empty());
        assert_eq!(
            doc.get("front_size").and_then(Json::as_u64),
            Some(front.len() as u64)
        );
        // Sorted ascending by area; HPWL must strictly improve as the
        // area worsens, or the point would be dominated.
        let mut last_area = 0u64;
        let mut last_hpwl = u64::MAX;
        for p in &front {
            let area = p.get("area").and_then(Json::as_u64).expect("area");
            let hpwl = p.get("hpwl").and_then(Json::as_u64).expect("hpwl");
            assert!(area >= last_area);
            if area > last_area && last_area > 0 {
                assert!(hpwl < last_hpwl, "{}", reply.json);
            }
            last_area = area;
            last_hpwl = hpwl;
        }
        let hv = doc
            .get("hypervolume")
            .and_then(Json::as_f64)
            .expect("hypervolume");
        assert!(hv > 0.0 && hv <= 1.0, "{hv}");
        assert_eq!(state.pareto_requests.load(Ordering::Relaxed), 1);
        assert_eq!(
            state.pareto_points.load(Ordering::Relaxed),
            front.len() as u64
        );
        let prom = state.render_prometheus();
        assert!(
            prom.contains("fp_netlist_pareto_requests_total 1"),
            "{prom}"
        );
    }

    #[test]
    fn netlist_request_validation_errors_are_structured() {
        let state = ServeState::new(1 << 20);
        // pareto without a netlist source is rejected at parse time.
        let reply = handle_line(r#"{"method": "pareto", "builtin": "fp1"}"#, 1, &state, None);
        assert_eq!(reply.status, STATUS_BAD_REQUEST, "{}", reply.json);
        assert!(reply.json.contains("netlist"), "{}", reply.json);
        // alpha outside [0, 1] is rejected.
        let reply = handle_line(
            r#"{"method": "optimize", "builtin": "fp1", "nets": 4, "alpha": 1.5}"#,
            2,
            &state,
            None,
        );
        assert_eq!(reply.status, STATUS_BAD_REQUEST, "{}", reply.json);
        // Malformed inline .fpn carries line/col coordinates.
        let reply = handle_line(
            r#"{"method": "optimize", "builtin": "fp1", "alpha": 0.5, "netlist": "module m0\nnet n1 m0.zzz"}"#,
            3,
            &state,
            None,
        );
        assert_eq!(reply.status, STATUS_BAD_INPUT, "{}", reply.json);
        assert!(reply.json.contains("\"netlist_line\":"), "{}", reply.json);
        assert!(reply.json.contains("\"netlist_col\":"), "{}", reply.json);
    }

    #[test]
    fn anneal_request_parsing_and_rejections() {
        let req = parse_request(
            r#"{"method": "anneal", "builtin": "fp1", "chains": 4, "moves": 500, "anneal_seed": 9}"#,
        )
        .expect("valid");
        match req.method {
            Method::Anneal(a) => {
                assert_eq!(a.base.builtin.as_deref(), Some("fp1"));
                assert_eq!(a.chains, 4);
                assert_eq!(a.moves, 500);
                assert_eq!(a.anneal_seed, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults when the knobs are absent.
        let req = parse_request(r#"{"method": "anneal", "builtin": "fp1"}"#).expect("valid");
        match req.method {
            Method::Anneal(a) => {
                assert_eq!(a.chains, 1);
                assert_eq!(a.moves, 2_000);
                assert_eq!(a.anneal_seed, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Netlist, outline, and budget knobs are rejected loudly.
        for (line, field) in [
            (
                r#"{"method": "anneal", "builtin": "fp1", "nets": 4}"#,
                "nets",
            ),
            (
                r#"{"method": "anneal", "builtin": "fp1", "outline": "40x40"}"#,
                "outline",
            ),
            (
                r#"{"method": "anneal", "builtin": "fp1", "deadline_ms": 10}"#,
                "deadline_ms",
            ),
            (
                r#"{"method": "anneal", "builtin": "fp1", "memory": 1000}"#,
                "memory",
            ),
        ] {
            match parse_request(line) {
                Err(RequestError::Bad(_, msg)) => {
                    assert!(msg.contains(field), "{msg}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Chain count bounds.
        assert!(parse_request(r#"{"method": "anneal", "builtin": "fp1", "chains": 0}"#).is_err());
        assert!(parse_request(r#"{"method": "anneal", "builtin": "fp1", "chains": 65}"#).is_err());
    }

    #[test]
    fn anneal_without_backend_is_a_bad_request() {
        let state = ServeState::new(1 << 20);
        let reply = handle_line(
            r#"{"id": 1, "method": "anneal", "builtin": "fp1"}"#,
            1,
            &state,
            None,
        );
        assert_eq!(reply.status, STATUS_BAD_REQUEST, "{}", reply.json);
        assert!(
            reply.json.contains("no annealing backend"),
            "{}",
            reply.json
        );
        assert_eq!(state.anneal_requests(), 0);
    }

    #[test]
    fn anneal_backend_reply_carries_the_outcome() {
        let state = ServeState::new(1 << 20).with_anneal_backend(Arc::new(|job: &AnnealJob| {
            assert_eq!(job.chains, 3);
            assert_eq!(job.moves, 250);
            assert_eq!(job.seed, 5);
            assert!(!job.library.is_empty());
            AnnealOutcome {
                best_area: 1234,
                initial_area: 2000,
                best_chain: 2,
                chain_areas: vec![1300, 1250, 1234],
                accepted: 42,
                proposed: 750,
                expression: "a b + c *".to_owned(),
            }
        }));
        let reply = handle_line(
            r#"{"id": 1, "method": "anneal", "builtin": "fp1", "chains": 3, "moves": 250, "anneal_seed": 5}"#,
            1,
            &state,
            None,
        );
        assert_eq!(reply.status, STATUS_OK, "{}", reply.json);
        assert!(reply.json.contains("\"area\":1234"), "{}", reply.json);
        assert!(
            reply.json.contains("\"initial_area\":2000"),
            "{}",
            reply.json
        );
        assert!(reply.json.contains("\"best_chain\":2"), "{}", reply.json);
        assert!(
            reply.json.contains("\"chain_areas\":[1300,1250,1234]"),
            "{}",
            reply.json
        );
        assert!(
            reply.json.contains("\"expression\":\"a b + c *\""),
            "{}",
            reply.json
        );
        assert_eq!(state.anneal_requests(), 1);
        // The stats reply and the exposition both carry the counter.
        let stats = handle_line(r#"{"method": "stats"}"#, 2, &state, None);
        assert!(
            stats.json.contains("\"anneal_requests\":1"),
            "{}",
            stats.json
        );
        assert!(state
            .render_prometheus()
            .contains("fp_server_anneal_requests_total 1"));
    }

    #[test]
    fn stats_reports_executor_gauges_and_method_latency() {
        let exec = Executor::new(1);
        let state = ServeState::new(1 << 20).with_executor(Arc::clone(&exec));
        let _ = handle_line(r#"{"method": "ping"}"#, 1, &state, None);
        let _ = handle_line(
            r#"{"id": 1, "method": "optimize", "builtin": "fig1", "n": 2}"#,
            2,
            &state,
            None,
        );
        let stats = handle_line(r#"{"method": "stats"}"#, 3, &state, None);
        assert!(stats.json.contains("\"exec_threads\":1"), "{}", stats.json);
        assert!(
            stats.json.contains("\"exec_queue_depth\":0"),
            "{}",
            stats.json
        );
        assert!(stats.json.contains("\"exec_active\":"), "{}", stats.json);
        // The latency digest counts the served methods per class.
        assert!(
            stats.json.contains("\"optimize\":{\"count\":1,\"p50_ms\":"),
            "{}",
            stats.json
        );
        assert!(
            stats.json.contains("\"anneal\":{\"count\":0"),
            "{}",
            stats.json
        );
        let prom = state.render_prometheus();
        assert!(prom.contains("fp_exec_threads 1"), "{prom}");
        assert!(prom.contains("fp_exec_queue_depth 0"), "{prom}");
        assert!(
            prom.contains(
                "fp_server_request_duration_seconds_bucket{method=\"optimize\",le=\"+Inf\"} 1"
            ),
            "{prom}"
        );
        assert!(
            prom.contains("fp_server_request_duration_seconds_count{method=\"control\"}"),
            "{prom}"
        );
        exec.shutdown();
    }

    #[test]
    fn leased_threads_never_change_the_echoed_config() {
        // A 1-thread executor has no spare capacity to lease, so the
        // run executes serially — but the reply still echoes the
        // request-resolved thread count (byte-identical replies at any
        // executor size/load).
        let exec = Executor::new(1);
        let leased = ServeState::new(1 << 20).with_executor(Arc::clone(&exec));
        let bare = ServeState::new(1 << 20);
        let line = r#"{"id": 1, "method": "optimize", "builtin": "fp1", "threads": 4}"#;
        let with_exec = handle_line(line, 1, &leased, None);
        let without = handle_line(line, 1, &bare, None);
        assert_eq!(with_exec.status, STATUS_OK, "{}", with_exec.json);
        // Identical echoed config and result fields in both replies
        // (on small trees `auto_serial` resolves the echo to 1 in both
        // states; either way it must not depend on the executor).
        for key in [
            "\"threads\":",
            "\"auto_serial\":",
            "\"area\":",
            "\"width\":",
            "\"height\":",
        ] {
            let field = |json: &str| {
                let start = json.find(key).expect(key);
                json[start..json[start..].find(',').map_or(json.len(), |c| start + c)].to_owned()
            };
            assert_eq!(field(&with_exec.json), field(&without.json), "{key}");
        }
        exec.shutdown();
    }
}
