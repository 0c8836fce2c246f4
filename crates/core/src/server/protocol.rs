//! The newline-delimited-JSON wire protocol of the estimation server.
//!
//! # Grammar
//!
//! One frame per line, UTF-8 JSON objects. Requests:
//!
//! ```text
//! {"op":"estimate","id":"r1","model":"alexnet","device":"V100S",
//!  "qos":"interactive","deadline_ms":500}        op defaults to estimate;
//!                                                qos defaults to batch;
//!                                                deadline_ms defaults to
//!                                                the class deadline
//! {"op":"ping","id":"p1"}                        liveness probe
//! {"op":"stats","id":"s1"}                       metrics snapshot
//! {"op":"drain","id":"d1"}                       request graceful drain
//! ```
//!
//! Responses (one line each, `id` echoes the request when it had one):
//!
//! ```text
//! {"id":"r1","ok":true,"result":{...}}           deterministic payload
//! {"id":"r1","ok":false,"error":"overloaded","detail":"..."}
//! {"id":null,"ok":false,"error":"malformed","detail":"..."}
//! ```
//!
//! Robustness is the protocol's whole job: malformed JSON, oversized
//! frames, unknown ops, bad field types and stalled (slow-loris) frames
//! all map to a **typed** [`ProtocolError`] — never a panic, never a
//! silent drop, never a wedged connection. The `result` payload of an
//! estimate is deterministic (no wall-clock fields), so coalesced
//! responses are byte-identical across every waiter.

use super::qos::QosClass;
use crate::engine::{EstimateOutcome, OutcomeKind, Tier};
use std::fmt::Write as _;

/// Default cap on one frame's byte length (id + names + slack; a real
/// request is well under 1 KiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// Default time a partially received frame may stall before the
/// connection is classified as a slow-loris and closed.
pub const DEFAULT_FRAME_STALL_MS: u64 = 5_000;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Estimate(EstimateRequest),
    Ping { id: Option<String> },
    Stats { id: Option<String> },
    Drain { id: Option<String> },
}

/// One estimation request as received on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    pub model: String,
    pub device: String,
    pub qos: QosClass,
    /// Per-request deadline override; `None` uses the class deadline.
    pub deadline_ms: Option<u64>,
}

/// Typed protocol-level failures. Every variant renders as an
/// `{"ok":false,"error":<kind>,...}` frame; none of them panic or wedge
/// the session.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line was not valid JSON (or not a JSON object).
    Malformed { detail: String },
    /// The frame exceeded the configured byte cap.
    Oversized { limit: usize },
    /// A partial frame stalled past the slow-loris deadline; the
    /// connection is closed after reporting this.
    Stalled { waited_ms: u64 },
    /// Valid JSON, but fields are missing or of the wrong type.
    BadRequest { id: Option<String>, detail: String },
    /// Valid JSON with an `op` this server does not speak.
    UnknownOp { id: Option<String>, op: String },
}

impl ProtocolError {
    /// Stable kind label, used both on the wire and as the
    /// `server.protocol.<kind>` counter suffix.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::Malformed { .. } => "malformed",
            ProtocolError::Oversized { .. } => "oversized",
            ProtocolError::Stalled { .. } => "stalled",
            ProtocolError::BadRequest { .. } => "bad-request",
            ProtocolError::UnknownOp { .. } => "unknown-op",
        }
    }

    pub fn id(&self) -> Option<&str> {
        match self {
            ProtocolError::BadRequest { id, .. } | ProtocolError::UnknownOp { id, .. } => {
                id.as_deref()
            }
            _ => None,
        }
    }

    pub fn detail(&self) -> String {
        match self {
            ProtocolError::Malformed { detail } => detail.clone(),
            ProtocolError::Oversized { limit } => {
                format!("frame exceeds {limit} bytes")
            }
            ProtocolError::Stalled { waited_ms } => {
                format!("partial frame stalled for {waited_ms} ms; closing connection")
            }
            ProtocolError::BadRequest { detail, .. } => detail.clone(),
            ProtocolError::UnknownOp { op, .. } => {
                format!("unknown op `{op}` (want estimate|ping|stats|drain)")
            }
        }
    }
}

fn str_field(
    obj: &[(String, serde_json::Value)],
    name: &str,
) -> Result<Option<String>, ProtocolError> {
    match obj.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
        None => Ok(None),
        Some(serde_json::Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtocolError::BadRequest {
            id: None,
            detail: format!("field `{name}` must be a string"),
        }),
    }
}

fn u64_field(
    obj: &[(String, serde_json::Value)],
    name: &str,
) -> Result<Option<u64>, ProtocolError> {
    match obj.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
        None => Ok(None),
        Some(serde_json::Value::Int(i)) if *i > 0 => Ok(Some(*i as u64)),
        Some(_) => Err(ProtocolError::BadRequest {
            id: None,
            detail: format!("field `{name}` must be a positive integer"),
        }),
    }
}

/// Parse one request line. The line must already be under the frame byte
/// cap (the session enforces that while reading).
pub fn parse_frame(line: &str) -> Result<Frame, ProtocolError> {
    let value = serde_json::parse(line.trim()).map_err(|e| ProtocolError::Malformed {
        detail: e.to_string(),
    })?;
    let serde_json::Value::Obj(fields) = value else {
        return Err(ProtocolError::Malformed {
            detail: "frame must be a JSON object".into(),
        });
    };
    // recover the id first so even bad requests can be correlated
    let id = str_field(&fields, "id").unwrap_or(None);
    let with_id = |mut e: ProtocolError| {
        if let ProtocolError::BadRequest { id: slot, .. } = &mut e {
            *slot = id.clone();
        }
        e
    };
    let op = str_field(&fields, "op")
        .map_err(with_id)?
        .unwrap_or_else(|| "estimate".to_string());
    match op.as_str() {
        "ping" => Ok(Frame::Ping { id }),
        "stats" => Ok(Frame::Stats { id }),
        "drain" => Ok(Frame::Drain { id }),
        "estimate" => {
            let require = |name: &str| -> Result<String, ProtocolError> {
                str_field(&fields, name).map_err(with_id)?.ok_or_else(|| {
                    ProtocolError::BadRequest {
                        id: id.clone(),
                        detail: format!("estimate frame missing `{name}`"),
                    }
                })
            };
            let request_id = require("id")?;
            let model = require("model")?;
            let device = require("device")?;
            let qos = match str_field(&fields, "qos").map_err(with_id)? {
                Some(spec) => QosClass::parse(&spec).map_err(|e| ProtocolError::BadRequest {
                    id: id.clone(),
                    detail: e,
                })?,
                None => QosClass::Batch,
            };
            let deadline_ms = u64_field(&fields, "deadline_ms").map_err(with_id)?;
            Ok(Frame::Estimate(EstimateRequest {
                id: request_id,
                model,
                device,
                qos,
                deadline_ms,
            }))
        }
        other => Err(ProtocolError::UnknownOp {
            id,
            op: other.to_string(),
        }),
    }
}

/// JSON-escape a string into `out`, quotes included.
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_opt_id(id: Option<&str>, out: &mut String) {
    match id {
        Some(id) => json_string(id, out),
        None => out.push_str("null"),
    }
}

/// The deterministic result payload of one estimate: everything a client
/// needs, **no wall-clock fields** and no delivery metadata (whether the
/// request was coalesced is visible in `server.coalesced`, not here), so
/// a coalesced response is byte-identical to the sequential one.
pub fn result_body(outcome: &EstimateOutcome, retries: u32) -> String {
    let mut out = String::with_capacity(192);
    out.push_str("{\"model\":");
    json_string(&outcome.model, &mut out);
    out.push_str(",\"device\":");
    json_string(&outcome.device, &mut out);
    out.push_str(",\"outcome\":");
    let kind = match &outcome.kind {
        OutcomeKind::Served { tier } => format!("served:{tier}"),
        OutcomeKind::Exhausted => "exhausted".into(),
    };
    json_string(&kind, &mut out);
    let stale = matches!(
        &outcome.kind,
        OutcomeKind::Served {
            tier: Tier::StaleCache
        }
    );
    match outcome.ipc {
        Some(v) => {
            let _ = write!(out, ",\"ipc\":{v:.9}");
        }
        None => out.push_str(",\"ipc\":null"),
    }
    match outcome.latency_ms {
        Some(v) => {
            let _ = write!(out, ",\"latency_ms\":{v:.6}");
        }
        None => out.push_str(",\"latency_ms\":null"),
    }
    let _ = write!(out, ",\"stale\":{stale},\"retries\":{retries}");
    // which predictor generation answered (regressor-tier responses
    // only): every response is attributable to exactly one hot-swap slot
    // generation, or null when another tier served
    match outcome.generation {
        Some(g) => {
            let _ = write!(out, ",\"generation\":{g}");
        }
        None => out.push_str(",\"generation\":null"),
    }
    out.push_str(",\"attempts\":[");
    for (i, a) in outcome.attempts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&format!("{}:{}", a.tier, a.failure.canonical()), &mut out);
    }
    out.push_str("]}");
    out
}

/// Wrap a result payload for one waiter: only the `id` differs between
/// coalesced responses.
pub fn render_result(id: &str, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 32);
    out.push_str("{\"id\":");
    json_string(id, &mut out);
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(body);
    out.push('}');
    out
}

/// Render a typed error frame.
pub fn render_error(id: Option<&str>, kind: &str, detail: &str) -> String {
    let mut out = String::with_capacity(64 + detail.len());
    out.push_str("{\"id\":");
    json_opt_id(id, &mut out);
    out.push_str(",\"ok\":false,\"error\":");
    json_string(kind, &mut out);
    out.push_str(",\"detail\":");
    json_string(detail, &mut out);
    out.push('}');
    out
}

/// Render a small ad-hoc success frame whose `result` is already JSON
/// (ping/stats/drain acknowledgements).
pub fn render_ok(id: Option<&str>, result_json: &str) -> String {
    let mut out = String::with_capacity(result_json.len() + 32);
    out.push_str("{\"id\":");
    json_opt_id(id, &mut out);
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(result_json);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_frame_parses_with_defaults() {
        let f = parse_frame(r#"{"id":"r1","model":"alexnet","device":"V100S"}"#).unwrap();
        let Frame::Estimate(req) = f else {
            panic!("not an estimate")
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.qos, QosClass::Batch);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn estimate_frame_parses_explicit_fields() {
        let f = parse_frame(
            r#"{"op":"estimate","id":"a","model":"m","device":"d","qos":"interactive","deadline_ms":250}"#,
        )
        .unwrap();
        let Frame::Estimate(req) = f else {
            panic!("not an estimate")
        };
        assert_eq!(req.qos, QosClass::Interactive);
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn malformed_and_bad_frames_are_typed() {
        assert_eq!(parse_frame("not json").unwrap_err().kind(), "malformed");
        assert_eq!(parse_frame("[1,2]").unwrap_err().kind(), "malformed");
        let missing = parse_frame(r#"{"id":"x","model":"m"}"#).unwrap_err();
        assert_eq!(missing.kind(), "bad-request");
        assert_eq!(missing.id(), Some("x"));
        let bad_qos =
            parse_frame(r#"{"id":"x","model":"m","device":"d","qos":"gold"}"#).unwrap_err();
        assert_eq!(bad_qos.kind(), "bad-request");
        let bad_deadline =
            parse_frame(r#"{"id":"x","model":"m","device":"d","deadline_ms":-5}"#).unwrap_err();
        assert_eq!(bad_deadline.kind(), "bad-request");
        let unknown = parse_frame(r#"{"op":"fly","id":"u"}"#).unwrap_err();
        assert_eq!(unknown.kind(), "unknown-op");
        assert_eq!(unknown.id(), Some("u"));
    }

    #[test]
    fn control_frames_parse() {
        assert_eq!(
            parse_frame(r#"{"op":"ping"}"#).unwrap(),
            Frame::Ping { id: None }
        );
        assert_eq!(
            parse_frame(r#"{"op":"drain","id":"d"}"#).unwrap(),
            Frame::Drain {
                id: Some("d".into())
            }
        );
    }

    #[test]
    fn rendered_frames_are_valid_json() {
        let err = render_error(Some("r\"1"), "malformed", "line 1: bad \"escape\"");
        let v = serde_json::parse(&err).expect("error frame parses");
        let serde_json::Value::Obj(fields) = v else {
            panic!("not an object")
        };
        assert!(fields.iter().any(|(k, _)| k == "error"));
        let ok = render_ok(None, "{\"pong\":true}");
        serde_json::parse(&ok).expect("ok frame parses");
    }

    #[test]
    fn result_body_is_deterministic_and_wall_clock_free() {
        let outcome = EstimateOutcome {
            model: "m".into(),
            device: "d".into(),
            kind: OutcomeKind::Served {
                tier: Tier::Analytical,
            },
            ipc: Some(1.25),
            latency_ms: Some(3.5),
            attempts: Vec::new(),
            elapsed_ms: 42.0,
            generation: None,
        };
        let a = result_body(&outcome, 0);
        let mut later = outcome.clone();
        later.elapsed_ms = 99.0; // wall time must not leak into the body
        let b = result_body(&later, 0);
        assert_eq!(a, b);
        assert!(a.contains("\"outcome\":\"served:analytical\""));
        assert!(a.contains("\"generation\":null"));
        serde_json::parse(&a).expect("body parses");
        let mut served_by_regressor = outcome.clone();
        served_by_regressor.generation = Some(4);
        let c = result_body(&served_by_regressor, 0);
        assert!(c.contains("\"generation\":4"));
    }
}
