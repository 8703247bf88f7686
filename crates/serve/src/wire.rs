//! The framed-TCP wire protocol.
//!
//! Everything on the wire is a **length-prefixed frame**:
//!
//! ```text
//! +----------------+------------+------------------+
//! | payload length | frame type |     payload      |
//! |   u32 big-e    |     u8     |  `length` bytes  |
//! +----------------+------------+------------------+
//! ```
//!
//! Frame types `0x0*` flow client → server, `0x8*` server → client:
//!
//! | type | name          | payload                                        |
//! |------|---------------|------------------------------------------------|
//! | 0x01 | `Query`       | version, plan, options, deadline_ms, request_id|
//! |      |               | (options: total_threads?, queue_capacity,      |
//! |      |               | cache_size, discard_results)                   |
//! | 0x02 | `Shutdown`    | empty (graceful-shutdown control frame)        |
//! | 0x81 | `Cardinality` | store name, row count (one frame per store)    |
//! | 0x82 | `Metrics`     | elapsed_us, activations, imbalance, threads    |
//! | 0x83 | `Error`       | error code, message (+ code-specific fields)   |
//! | 0x84 | `ShutdownAck` | empty                                          |
//!
//! A successful query streams `Cardinality` frames (one per store operator,
//! in name order) terminated by exactly one `Metrics` frame; a failed or
//! shed query gets exactly one `Error` frame. Scalars are fixed-width
//! big-endian; strings are a `u32` byte length plus UTF-8 bytes; options
//! are a presence byte plus the value. Decoding is total: malformed input
//! of any shape returns a typed [`ServeError`], never panics, and never
//! trusts a length field before checking it against the bytes actually
//! present ([`MAX_FRAME_LEN`] bounds allocation).

use crate::error::{ServeError, ServeResult};
use dbs3_engine::SchedulerOptions;
use dbs3_lera::{
    CompareOp, InputSource, JoinAlgorithm, JoinCondition, NodeId, OperatorKind, OperatorNode,
    OuterInput, Plan, Predicate,
};
use dbs3_storage::Value;
use std::io::{Read, Write};

/// Version byte carried inside every `Query` frame; bumped on incompatible
/// payload changes so stale clients get a typed error, not garbage.
/// Version 2 added the idempotency `request_id` to the `Query` payload;
/// version 3 cut the options from ten fields to the five
/// `SchedulerOptions` kept then; version 4 dropped the strategy tag, leaving
/// the four it keeps now.
pub const PROTOCOL_VERSION: u8 = 4;

/// Upper bound on a frame payload. Plans are small (a handful of nodes and
/// strings); 16 MiB is far above anything legitimate while keeping a
/// hostile length header from allocating gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Maximum predicate nesting the decoder will follow — bounds recursion on
/// hostile input (the encoder never produces trees this deep).
const MAX_PREDICATE_DEPTH: usize = 64;

/// Frame type bytes (see the module docs table).
mod frame_type {
    pub const QUERY: u8 = 0x01;
    pub const SHUTDOWN: u8 = 0x02;
    pub const CARDINALITY: u8 = 0x81;
    pub const METRICS: u8 = 0x82;
    pub const ERROR: u8 = 0x83;
    pub const SHUTDOWN_ACK: u8 = 0x84;
}

/// Error codes of the `Error` frame.
mod error_code {
    pub const BUSY: u8 = 1;
    pub const SHUTDOWN: u8 = 2;
    pub const BAD_REQUEST: u8 = 3;
    pub const EXEC_FAILED: u8 = 4;
    pub const DEADLINE: u8 = 5;
}

/// A query request: the plan to run, the scheduling knobs, and an optional
/// per-request deadline in milliseconds (0 = none).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The plan to execute (relation names resolve in the server catalog).
    pub plan: Plan,
    /// Scheduling knobs, applied verbatim server-side.
    pub options: SchedulerOptions,
    /// Server-side wait deadline in milliseconds; 0 means wait forever.
    pub deadline_ms: u64,
    /// Idempotency id chosen by the client; 0 means "not idempotent". A
    /// retried request with the same non-zero id replays the cached
    /// response instead of re-executing (and is never double-counted).
    pub request_id: u64,
}

/// Execution metrics summarised for the wire (the scalar core of
/// `BackendMetrics` — per-operation detail stays server-side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireMetrics {
    /// Wall-clock execution time in microseconds.
    pub elapsed_us: u64,
    /// Logical activations consumed across all operations.
    pub total_activations: u64,
    /// Worst per-operation busy imbalance (1.0 = balanced).
    pub worst_imbalance: f64,
    /// Worker threads that served the query (the pool width).
    pub total_threads: u64,
}

/// One protocol frame, either direction.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Client → server: run this plan.
    Query(QueryRequest),
    /// Client → server: drain and shut the server down (control frame).
    Shutdown,
    /// Server → client: one store's result cardinality.
    Cardinality {
        /// Store (result) name.
        name: String,
        /// Result rows in that store.
        rows: u64,
    },
    /// Server → client: the query finished; summary metrics.
    Metrics(WireMetrics),
    /// Server → client: the request failed; typed error.
    Error(ServeError),
    /// Server → client: shutdown acknowledged, draining begins.
    ShutdownAck,
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Append-only scalar encoder over a byte buffer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }
}

/// Cursor-based scalar decoder; every read checks the remaining bytes and
/// returns [`ServeError::Malformed`] instead of slicing out of bounds.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> ServeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                ServeError::Malformed(format!("payload ends inside {what} (need {n} more bytes)"))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> ServeResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    #[expect(clippy::unwrap_used, reason = "take(4, ..) returns exactly 4 bytes")]
    fn u32(&mut self, what: &str) -> ServeResult<u32> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    #[expect(clippy::unwrap_used, reason = "take(8, ..) returns exactly 8 bytes")]
    fn u64(&mut self, what: &str) -> ServeResult<u64> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    #[expect(clippy::unwrap_used, reason = "take(8, ..) returns exactly 8 bytes")]
    fn i64(&mut self, what: &str) -> ServeResult<i64> {
        Ok(i64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> ServeResult<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &str) -> ServeResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ServeError::Malformed(format!(
                "{what}: invalid bool byte {other}"
            ))),
        }
    }

    fn str(&mut self, what: &str) -> ServeResult<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Malformed(format!("{what}: invalid UTF-8")))
    }

    fn opt_u64(&mut self, what: &str) -> ServeResult<Option<u64>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            other => Err(ServeError::Malformed(format!(
                "{what}: invalid option tag {other}"
            ))),
        }
    }

    /// Converts a wire `u64` into a host `usize`, rejecting overflow.
    fn usize_of(v: u64, what: &str) -> ServeResult<usize> {
        usize::try_from(v).map_err(|_| {
            ServeError::Malformed(format!("{what}: value {v} does not fit the host usize"))
        })
    }

    /// Asserts the whole payload was consumed — trailing garbage means the
    /// peer speaks a different dialect, which must not pass silently.
    fn finish(self, what: &str) -> ServeResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Malformed(format!(
                "{what}: {} trailing bytes after the payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Plan / options encoding
// ---------------------------------------------------------------------------

fn encode_value(enc: &mut Enc, value: &Value) {
    match value {
        Value::Int(v) => {
            enc.u8(0);
            enc.i64(*v);
        }
        Value::Str(s) => {
            enc.u8(1);
            enc.str(s);
        }
    }
}

fn decode_value(dec: &mut Dec<'_>) -> ServeResult<Value> {
    match dec.u8("value tag")? {
        0 => Ok(Value::Int(dec.i64("int value")?)),
        1 => Ok(Value::Str(dec.str("str value")?.into())),
        other => Err(ServeError::Malformed(format!("unknown value tag {other}"))),
    }
}

fn encode_compare_op(enc: &mut Enc, op: CompareOp) {
    enc.u8(match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    });
}

fn decode_compare_op(dec: &mut Dec<'_>) -> ServeResult<CompareOp> {
    Ok(match dec.u8("compare op")? {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        5 => CompareOp::Ge,
        other => return Err(ServeError::Malformed(format!("unknown compare op {other}"))),
    })
}

fn encode_predicate(enc: &mut Enc, p: &Predicate) {
    match p {
        Predicate::True => enc.u8(0),
        Predicate::Compare { column, op, value } => {
            enc.u8(1);
            enc.str(column);
            encode_compare_op(enc, *op);
            encode_value(enc, value);
        }
        Predicate::Modulo {
            column,
            modulus,
            remainder,
        } => {
            enc.u8(2);
            enc.str(column);
            enc.i64(*modulus);
            enc.i64(*remainder);
        }
        Predicate::And(a, b) => {
            enc.u8(3);
            encode_predicate(enc, a);
            encode_predicate(enc, b);
        }
        Predicate::Or(a, b) => {
            enc.u8(4);
            encode_predicate(enc, a);
            encode_predicate(enc, b);
        }
        Predicate::Not(a) => {
            enc.u8(5);
            encode_predicate(enc, a);
        }
    }
}

fn decode_predicate(dec: &mut Dec<'_>, depth: usize) -> ServeResult<Predicate> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(ServeError::Malformed(format!(
            "predicate nesting exceeds {MAX_PREDICATE_DEPTH}"
        )));
    }
    Ok(match dec.u8("predicate tag")? {
        0 => Predicate::True,
        1 => Predicate::Compare {
            column: dec.str("compare column")?,
            op: decode_compare_op(dec)?,
            value: decode_value(dec)?,
        },
        2 => Predicate::Modulo {
            column: dec.str("modulo column")?,
            modulus: dec.i64("modulus")?,
            remainder: dec.i64("remainder")?,
        },
        3 => Predicate::And(
            Box::new(decode_predicate(dec, depth + 1)?),
            Box::new(decode_predicate(dec, depth + 1)?),
        ),
        4 => Predicate::Or(
            Box::new(decode_predicate(dec, depth + 1)?),
            Box::new(decode_predicate(dec, depth + 1)?),
        ),
        5 => Predicate::Not(Box::new(decode_predicate(dec, depth + 1)?)),
        other => {
            return Err(ServeError::Malformed(format!(
                "unknown predicate tag {other}"
            )))
        }
    })
}

fn encode_kind(enc: &mut Enc, kind: &OperatorKind) {
    match kind {
        OperatorKind::Filter {
            relation,
            predicate,
        } => {
            enc.u8(0);
            enc.str(relation);
            encode_predicate(enc, predicate);
        }
        OperatorKind::Transmit {
            relation,
            key_column,
        } => {
            enc.u8(1);
            enc.str(relation);
            enc.str(key_column);
        }
        OperatorKind::Join {
            outer,
            inner_relation,
            condition,
            algorithm,
        } => {
            enc.u8(2);
            match outer {
                OuterInput::Fragment { relation } => {
                    enc.u8(0);
                    enc.str(relation);
                }
                OuterInput::Pipeline => enc.u8(1),
            }
            enc.str(inner_relation);
            enc.str(&condition.outer_column);
            enc.str(&condition.inner_column);
            enc.u8(match algorithm {
                JoinAlgorithm::NestedLoop => 0,
                JoinAlgorithm::Hash => 1,
            });
        }
        OperatorKind::Store { result_name } => {
            enc.u8(3);
            enc.str(result_name);
        }
    }
}

fn decode_kind(dec: &mut Dec<'_>) -> ServeResult<OperatorKind> {
    Ok(match dec.u8("operator kind tag")? {
        0 => OperatorKind::Filter {
            relation: dec.str("filter relation")?,
            predicate: decode_predicate(dec, 0)?,
        },
        1 => OperatorKind::Transmit {
            relation: dec.str("transmit relation")?,
            key_column: dec.str("transmit key column")?,
        },
        2 => {
            let outer = match dec.u8("join outer tag")? {
                0 => OuterInput::Fragment {
                    relation: dec.str("join outer relation")?,
                },
                1 => OuterInput::Pipeline,
                other => {
                    return Err(ServeError::Malformed(format!(
                        "unknown join outer tag {other}"
                    )))
                }
            };
            let inner_relation = dec.str("join inner relation")?;
            let condition =
                JoinCondition::new(dec.str("join outer column")?, dec.str("join inner column")?);
            let algorithm = match dec.u8("join algorithm")? {
                0 => JoinAlgorithm::NestedLoop,
                1 => JoinAlgorithm::Hash,
                other => {
                    return Err(ServeError::Malformed(format!(
                        "unknown join algorithm {other}"
                    )))
                }
            };
            OperatorKind::Join {
                outer,
                inner_relation,
                condition,
                algorithm,
            }
        }
        3 => OperatorKind::Store {
            result_name: dec.str("store result name")?,
        },
        other => {
            return Err(ServeError::Malformed(format!(
                "unknown operator kind tag {other}"
            )))
        }
    })
}

fn encode_plan(enc: &mut Enc, plan: &Plan) {
    enc.str(plan.name());
    enc.u32(plan.len() as u32);
    for node in plan.nodes() {
        enc.u64(node.id.0 as u64);
        enc.str(&node.name);
        encode_kind(enc, &node.kind);
        match node.input {
            InputSource::Trigger => enc.u8(0),
            InputSource::Pipeline { producer } => {
                enc.u8(1);
                enc.u64(producer.0 as u64);
            }
        }
    }
}

fn decode_plan(dec: &mut Dec<'_>) -> ServeResult<Plan> {
    let name = dec.str("plan name")?;
    let count = dec.u32("plan node count")? as usize;
    // A node takes at least a dozen bytes; reject counts the payload cannot
    // possibly hold before reserving anything.
    if count > dec.buf.len() {
        return Err(ServeError::Malformed(format!(
            "plan claims {count} nodes but only {} payload bytes remain",
            dec.buf.len()
        )));
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let id = Dec::usize_of(dec.u64("node id")?, "node id")?;
        let node_name = dec.str("node name")?;
        let kind = decode_kind(dec)?;
        let input = match dec.u8("input tag")? {
            0 => InputSource::Trigger,
            1 => InputSource::Pipeline {
                producer: NodeId(Dec::usize_of(dec.u64("producer id")?, "producer id")?),
            },
            other => return Err(ServeError::Malformed(format!("unknown input tag {other}"))),
        };
        nodes.push(OperatorNode::new(NodeId(id), node_name, kind, input));
    }
    Plan::from_nodes(name, nodes)
        .map_err(|e| ServeError::Malformed(format!("plan fails structural validation: {e}")))
}

fn encode_options(enc: &mut Enc, options: &SchedulerOptions) {
    enc.opt_u64(options.total_threads.map(|v| v as u64));
    enc.u64(options.queue_capacity as u64);
    enc.u64(options.cache_size as u64);
    enc.bool(options.discard_results);
}

fn decode_options(dec: &mut Dec<'_>) -> ServeResult<SchedulerOptions> {
    let total_threads = dec
        .opt_u64("total_threads")?
        .map(|v| Dec::usize_of(v, "total_threads"))
        .transpose()?;
    let queue_capacity = Dec::usize_of(dec.u64("queue_capacity")?, "queue_capacity")?;
    let cache_size = Dec::usize_of(dec.u64("cache_size")?, "cache_size")?;
    let discard_results = dec.bool("discard_results")?;
    Ok(SchedulerOptions {
        total_threads,
        queue_capacity,
        cache_size,
        discard_results,
    })
}

impl QueryRequest {
    /// Encodes the request payload (without the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u8(PROTOCOL_VERSION);
        encode_plan(&mut enc, &self.plan);
        encode_options(&mut enc, &self.options);
        enc.u64(self.deadline_ms);
        enc.u64(self.request_id);
        enc.buf
    }

    /// Decodes a request payload. Total: every malformed shape — wrong
    /// version, unknown tags, short or oversized payloads, trailing bytes —
    /// returns [`ServeError::Malformed`].
    pub fn decode(payload: &[u8]) -> ServeResult<Self> {
        let mut dec = Dec::new(payload);
        let version = dec.u8("protocol version")?;
        if version != PROTOCOL_VERSION {
            return Err(ServeError::Malformed(format!(
                "protocol version {version} (this server speaks {PROTOCOL_VERSION})"
            )));
        }
        let plan = decode_plan(&mut dec)?;
        let options = decode_options(&mut dec)?;
        let deadline_ms = dec.u64("deadline_ms")?;
        let request_id = dec.u64("request_id")?;
        dec.finish("query request")?;
        Ok(QueryRequest {
            plan,
            options,
            deadline_ms,
            request_id,
        })
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

fn encode_error(enc: &mut Enc, error: &ServeError) {
    match error {
        ServeError::ServerBusy { live, max_inflight } => {
            enc.u8(error_code::BUSY);
            enc.str("server busy");
            enc.u64(*live);
            enc.u64(*max_inflight);
        }
        ServeError::RemoteShutdown => {
            enc.u8(error_code::SHUTDOWN);
            enc.str("server shutting down");
        }
        ServeError::DeadlineExceeded => {
            enc.u8(error_code::DEADLINE);
            enc.str("request deadline exceeded");
        }
        ServeError::Malformed(msg) | ServeError::Protocol(msg) => {
            enc.u8(error_code::BAD_REQUEST);
            enc.str(msg);
        }
        ServeError::Remote(msg) => {
            enc.u8(error_code::EXEC_FAILED);
            enc.str(msg);
        }
        other => {
            enc.u8(error_code::EXEC_FAILED);
            enc.str(&other.to_string());
        }
    }
}

fn decode_error(dec: &mut Dec<'_>) -> ServeResult<ServeError> {
    let code = dec.u8("error code")?;
    let message = dec.str("error message")?;
    Ok(match code {
        error_code::BUSY => ServeError::ServerBusy {
            live: dec.u64("busy live count")?,
            max_inflight: dec.u64("busy admission limit")?,
        },
        error_code::SHUTDOWN => ServeError::RemoteShutdown,
        error_code::DEADLINE => ServeError::DeadlineExceeded,
        error_code::BAD_REQUEST => ServeError::Malformed(message),
        error_code::EXEC_FAILED => ServeError::Remote(message),
        other => return Err(ServeError::Malformed(format!("unknown error code {other}"))),
    })
}

impl Frame {
    /// Serialises the frame (header + payload) into `writer`.
    pub fn write_to(&self, writer: &mut impl Write) -> ServeResult<()> {
        let (frame_type, payload) = match self {
            Frame::Query(request) => (frame_type::QUERY, request.encode()),
            Frame::Shutdown => (frame_type::SHUTDOWN, Vec::new()),
            Frame::Cardinality { name, rows } => {
                let mut enc = Enc::new();
                enc.str(name);
                enc.u64(*rows);
                (frame_type::CARDINALITY, enc.buf)
            }
            Frame::Metrics(m) => {
                let mut enc = Enc::new();
                enc.u64(m.elapsed_us);
                enc.u64(m.total_activations);
                enc.f64(m.worst_imbalance);
                enc.u64(m.total_threads);
                (frame_type::METRICS, enc.buf)
            }
            Frame::Error(error) => {
                let mut enc = Enc::new();
                encode_error(&mut enc, error);
                (frame_type::ERROR, enc.buf)
            }
            Frame::ShutdownAck => (frame_type::SHUTDOWN_ACK, Vec::new()),
        };
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[4] = frame_type;
        writer.write_all(&header)?;
        writer.write_all(&payload)?;
        writer.flush()?;
        Ok(())
    }

    /// Reads one frame. Returns `Ok(None)` on a clean close *between*
    /// frames (a normal disconnect); a close inside a frame is
    /// [`ServeError::Truncated`]; an oversized length header is
    /// [`ServeError::FrameTooLarge`] (rejected before allocating).
    pub fn read_from(reader: &mut impl Read) -> ServeResult<Option<Frame>> {
        let mut header = [0u8; 5];
        match read_exact_or_eof(reader, &mut header)? {
            ReadOutcome::CleanEof => return Ok(None),
            ReadOutcome::TruncatedEof => return Err(ServeError::Truncated),
            ReadOutcome::Filled => {}
        }
        #[expect(clippy::unwrap_used, reason = "header[..4] is exactly 4 bytes")]
        let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ServeError::FrameTooLarge { len });
        }
        let mut payload = vec![0u8; len];
        match read_exact_or_eof(reader, &mut payload)? {
            ReadOutcome::Filled => {}
            ReadOutcome::CleanEof | ReadOutcome::TruncatedEof => return Err(ServeError::Truncated),
        }
        Self::decode(header[4], &payload).map(Some)
    }

    /// Decodes a frame from its type byte and payload.
    pub fn decode(frame_type_byte: u8, payload: &[u8]) -> ServeResult<Frame> {
        let mut dec = Dec::new(payload);
        let frame = match frame_type_byte {
            frame_type::QUERY => return QueryRequest::decode(payload).map(Frame::Query),
            frame_type::SHUTDOWN => Frame::Shutdown,
            frame_type::CARDINALITY => Frame::Cardinality {
                name: dec.str("cardinality name")?,
                rows: dec.u64("cardinality rows")?,
            },
            frame_type::METRICS => Frame::Metrics(WireMetrics {
                elapsed_us: dec.u64("elapsed_us")?,
                total_activations: dec.u64("total_activations")?,
                worst_imbalance: dec.f64("worst_imbalance")?,
                total_threads: dec.u64("total_threads")?,
            }),
            frame_type::ERROR => Frame::Error(decode_error(&mut dec)?),
            frame_type::SHUTDOWN_ACK => Frame::ShutdownAck,
            other => {
                return Err(ServeError::Malformed(format!(
                    "unknown frame type 0x{other:02x}"
                )))
            }
        };
        dec.finish("frame payload")?;
        Ok(frame)
    }
}

/// What a best-effort `read_exact` actually achieved.
enum ReadOutcome {
    /// The buffer was filled completely.
    Filled,
    /// The stream was already at EOF — nothing was read.
    CleanEof,
    /// The stream ended after some, but not all, bytes.
    TruncatedEof,
}

/// Like `read_exact` but distinguishes "no frame at all" (clean EOF at the
/// first byte) from "frame cut short" — the protocol treats those very
/// differently. `ErrorKind::Interrupted` is retried.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> ServeResult<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::TruncatedEof
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_lera::plans;

    fn sample_request() -> QueryRequest {
        QueryRequest {
            plan: plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            options: SchedulerOptions::default().with_total_threads(4),
            deadline_ms: 2_500,
            request_id: 77,
        }
    }

    /// Encodes a frame and returns (type byte, payload).
    fn encode(frame: &Frame) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        (buf[4], buf[5..].to_vec())
    }

    #[test]
    fn query_request_round_trips() {
        let request = sample_request();
        let decoded = QueryRequest::decode(&request.encode()).unwrap();
        assert_eq!(decoded.plan, request.plan);
        assert_eq!(decoded.options, request.options);
        assert_eq!(decoded.deadline_ms, request.deadline_ms);
        assert_eq!(decoded.request_id, request.request_id);
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = [
            Frame::Query(sample_request()),
            Frame::Shutdown,
            Frame::Cardinality {
                name: "Result".into(),
                rows: 20_000,
            },
            Frame::Metrics(WireMetrics {
                elapsed_us: 1_234,
                total_activations: 42_000,
                worst_imbalance: 1.25,
                total_threads: 8,
            }),
            Frame::Error(ServeError::ServerBusy {
                live: 65,
                max_inflight: 64,
            }),
            Frame::Error(ServeError::RemoteShutdown),
            Frame::Error(ServeError::DeadlineExceeded),
            Frame::Error(ServeError::Remote("join blew up".into())),
            Frame::ShutdownAck,
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            frame.write_to(&mut stream).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for frame in &frames {
            let read = Frame::read_from(&mut cursor).unwrap().expect("frame");
            match (frame, &read) {
                (Frame::Query(a), Frame::Query(b)) => assert_eq!(a.encode(), b.encode()),
                (Frame::Shutdown, Frame::Shutdown) => {}
                (
                    Frame::Cardinality { name: a, rows: ar },
                    Frame::Cardinality { name: b, rows: br },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(ar, br);
                }
                (Frame::Metrics(a), Frame::Metrics(b)) => assert_eq!(a, b),
                (Frame::Error(a), Frame::Error(b)) => assert_eq!(a, b),
                (Frame::ShutdownAck, Frame::ShutdownAck) => {}
                (expected, got) => panic!("expected {expected:?}, got {got:?}"),
            }
        }
        assert!(Frame::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn clean_eof_between_frames_is_none_inside_is_truncated() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(Frame::read_from(&mut empty).unwrap().is_none());

        let mut buf = Vec::new();
        Frame::Query(sample_request()).write_to(&mut buf).unwrap();
        // Every strict prefix that cuts the frame is Truncated, not a panic
        // and not a clean close (offset 0 excluded — that IS a clean close).
        for cut in [1, 3, 5, 6, buf.len() / 2, buf.len() - 1] {
            let mut cursor = std::io::Cursor::new(buf[..cut].to_vec());
            assert!(
                matches!(Frame::read_from(&mut cursor), Err(ServeError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_header_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.push(frame_type::QUERY);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ServeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            Frame::decode(0x7f, &[]),
            Err(ServeError::Malformed(_))
        ));
        // A query frame with a bad version byte.
        let mut payload = sample_request().encode();
        payload[0] = 99;
        assert!(matches!(
            QueryRequest::decode(&payload),
            Err(ServeError::Malformed(_))
        ));
        // Frames of older clients — version 2 with its ten-field options
        // layout, version 3 with five fields including the strategy tag —
        // name both versions instead of being misparsed as version 4.
        let request = sample_request();
        let mut v2 = Enc::new();
        v2.u8(2);
        encode_plan(&mut v2, &request.plan);
        v2.opt_u64(Some(4)); // total_threads
        v2.u64(64); // max_threads
        v2.f64(250_000.0); // work_per_thread
        v2.u64(1024); // queue_capacity
        v2.u64(32); // cache_size
        v2.u8(0); // strategy tag
        v2.f64(3.0); // lpt_skew_threshold
        v2.bool(false); // discard_results
        v2.opt_u64(None); // build_threads
        v2.opt_u64(None); // morsel_rows
        v2.u64(request.deadline_ms);
        v2.u64(request.request_id);
        let mut v3 = Enc::new();
        v3.u8(3);
        encode_plan(&mut v3, &request.plan);
        v3.opt_u64(Some(4)); // total_threads
        v3.u64(1024); // queue_capacity
        v3.u64(32); // cache_size
        v3.u8(2); // strategy tag (LPT)
        v3.bool(false); // discard_results
        v3.u64(request.deadline_ms);
        v3.u64(request.request_id);
        for (version, frame) in [(2, v2.buf), (3, v3.buf)] {
            match Frame::decode(frame_type::QUERY, &frame) {
                Err(ServeError::Malformed(msg)) => assert!(
                    msg.contains(&format!("protocol version {version}"))
                        && msg.contains("speaks 4"),
                    "{msg}"
                ),
                other => panic!("expected a typed version error, got {other:?}"),
            }
        }
        // Error frame with an unknown code.
        let mut enc = Enc::new();
        enc.u8(200);
        enc.str("?");
        assert!(matches!(
            Frame::decode(frame_type::ERROR, &enc.buf),
            Err(ServeError::Malformed(_))
        ));
        // A join whose algorithm tag (2) is past the last one: a typed
        // error, not a misparse. Decoding stops at the tag.
        let mut enc = Enc::new();
        enc.u8(PROTOCOL_VERSION);
        enc.str("ideal");
        enc.u32(1); // node count
        enc.u64(0); // node id
        enc.str("join");
        enc.u8(2); // operator kind: join
        enc.u8(0); // outer: fragment
        enc.str("A");
        enc.str("Bprime");
        enc.str("unique1");
        enc.str("unique1");
        enc.u8(2); // join algorithm
        match Frame::decode(frame_type::QUERY, &enc.buf) {
            Err(ServeError::Malformed(msg)) => assert_eq!(msg, "unknown join algorithm 2"),
            other => panic!("expected a typed algorithm error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (frame_type_byte, mut payload) = encode(&Frame::Cardinality {
            name: "Result".into(),
            rows: 7,
        });
        payload.push(0);
        assert!(matches!(
            Frame::decode(frame_type_byte, &payload),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_node_count_is_rejected_without_reserving() {
        // A plan header claiming u32::MAX nodes in a tiny payload.
        let mut enc = Enc::new();
        enc.u8(PROTOCOL_VERSION);
        enc.str("hostile");
        enc.u32(u32::MAX);
        assert!(matches!(
            QueryRequest::decode(&enc.buf),
            Err(ServeError::Malformed(_))
        ));
    }
}
