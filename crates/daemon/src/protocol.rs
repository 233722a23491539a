//! The daemon's line-delimited JSON protocol.
//!
//! One request per line, one or more response lines per request. Every
//! response line is a JSON object with an `"ok"` field; errors carry the
//! reason in `"error"` so a rejected submit (malformed spec, full queue,
//! draining daemon) is always distinguishable from a transport failure.
//!
//! Only the last line of a response starts with `{"ok":`, so a client can
//! read a `watch` up to it. A `summary` line carries `count`, `total_ns`
//! and `max_ns` for a span, `sum` for a counter, and `samples`, `min`,
//! `mean` and `max` for a gauge. Raw per-event spans are not served; a
//! direct `evaluate --telemetry-out` run writes them.
//!
//! Requests are parsed by hand over [`serde_json::Value`] rather than
//! derived, so a malformed line yields a message naming the field that is
//! wrong instead of a generic deserialization error — the protocol is the
//! user interface of the daemon.
//!
//! | command    | fields                               | effect |
//! |------------|--------------------------------------|--------|
//! | `submit`   | `spec` (a [`JobSpec`] object)        | enqueue a job; rejected with a reason when the queue is full or the daemon is draining |
//! | `status`   | `id`                                 | one snapshot line for the job: state, detail, `aggregates` and `dropped` counts, result |
//! | `watch`    | `id`                                 | once the job is terminal: its `running` phase line, one `summary` line per `(scope, name, kind)` telemetry aggregate in key order, its terminal phase line, then a line counting the `aggregates` and the events `dropped` before the fold or beyond the key cap |
//! | `cancel`   | `id`, optional `after_chunks`        | cancel now, or arm the checkpoint fuse: a stream job stops before every chunk of canonical rank `after_chunks` or more (chunk `c` of shard `s` of `S` has rank `c·S + s + 1`, whatever the product count), a batch job at its n-th job start |
//! | `list`     | —                                    | one line with every job's snapshot |
//! | `drain`    | —                                    | run every queued job to completion, in submission order |
//! | `shutdown` | optional `graceful` (default `true`) | stop accepting submits; graceful drains the queue first |

use idse_eval::JobSpec;
use serde_json::Value;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job described by a validated [`JobSpec`].
    Submit(Box<JobSpec>),
    /// Report one job's state.
    Status {
        /// Daemon-assigned job id.
        id: u64,
    },
    /// A job's phase lines and per-stage telemetry aggregates.
    Watch {
        /// Daemon-assigned job id.
        id: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Daemon-assigned job id.
        id: u64,
        /// When set, arm the checkpoint fuse instead of cancelling
        /// immediately: a stream job stops before every chunk of canonical
        /// rank `n` or more, at any worker count — the deterministic
        /// mid-flight cancel.
        after_chunks: Option<u64>,
    },
    /// Report every job's state.
    List,
    /// Run every queued job to completion in submission order.
    Drain,
    /// Stop the daemon.
    Shutdown {
        /// Drain the queue before stopping; `false` leaves queued jobs
        /// in the journal for the next start to resume.
        graceful: bool,
    },
}

impl Request {
    /// Parse one protocol line. Errors name the missing or mistyped
    /// field; they are protocol responses, not I/O failures.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
        let cmd = value
            .get("cmd")
            .ok_or_else(|| "request must be an object with a \"cmd\" field".to_string())?
            .as_str()
            .ok_or_else(|| "\"cmd\" must be a string".to_string())?;
        match cmd {
            "submit" => {
                let spec = value
                    .get("spec")
                    .ok_or_else(|| "submit requires a \"spec\" object".to_string())?;
                let spec: JobSpec = serde_json::from_value(spec.clone())
                    .map_err(|e| format!("malformed job spec: {e}"))?;
                Ok(Request::Submit(Box::new(spec)))
            }
            "status" => Ok(Request::Status { id: required_id(&value)? }),
            "watch" => Ok(Request::Watch { id: required_id(&value)? }),
            "cancel" => {
                let id = required_id(&value)?;
                let after_chunks = match value.get("after_chunks") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| "\"after_chunks\" must be an integer".to_string())?,
                    ),
                };
                Ok(Request::Cancel { id, after_chunks })
            }
            "list" => Ok(Request::List),
            "drain" => Ok(Request::Drain),
            "shutdown" => {
                let graceful = match value.get("graceful") {
                    None | Some(Value::Null) => true,
                    Some(v) => {
                        v.as_bool().ok_or_else(|| "\"graceful\" must be a boolean".to_string())?
                    }
                };
                Ok(Request::Shutdown { graceful })
            }
            other => Err(format!(
                "unknown command {other:?}: expected submit, status, watch, cancel, \
                 list, drain, or shutdown"
            )),
        }
    }
}

fn required_id(value: &Value) -> Result<u64, String> {
    value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| "request requires an integer \"id\"".to_string())
}

/// Serialize an error response line.
pub fn error_line(message: &str) -> String {
    line(&serde_json::json!({ "ok": false, "error": message }))
}

/// Serialize one response [`Value`] as a protocol line (no newline).
pub fn line(value: &Value) -> String {
    serde_json::to_string(value).expect("invariant: protocol values serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(Request::parse(r#"{"cmd":"list"}"#), Ok(Request::List));
        assert_eq!(Request::parse(r#"{"cmd":"drain"}"#), Ok(Request::Drain));
        assert_eq!(Request::parse(r#"{"cmd":"status","id":3}"#), Ok(Request::Status { id: 3 }));
        assert_eq!(Request::parse(r#"{"cmd":"watch","id":1}"#), Ok(Request::Watch { id: 1 }));
        assert_eq!(
            Request::parse(r#"{"cmd":"cancel","id":2,"after_chunks":5}"#),
            Ok(Request::Cancel { id: 2, after_chunks: Some(5) })
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown { graceful: true })
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown","graceful":false}"#),
            Ok(Request::Shutdown { graceful: false })
        );
        let submit =
            Request::parse(r#"{"cmd":"submit","spec":{"kind":"stream","transactions":100}}"#);
        match submit {
            Ok(Request::Submit(spec)) => assert_eq!(spec.transactions, Some(100)),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn errors_name_the_broken_field() {
        let e = Request::parse("not json").expect_err("invalid JSON");
        assert!(e.contains("not valid JSON"), "{e}");
        let e = Request::parse(r#"{"cmd":"status"}"#).expect_err("missing id");
        assert!(e.contains("\"id\""), "{e}");
        let e = Request::parse(r#"{"cmd":"submit"}"#).expect_err("missing spec");
        assert!(e.contains("\"spec\""), "{e}");
        let e = Request::parse(r#"{"cmd":"frobnicate"}"#).expect_err("unknown cmd");
        assert!(e.contains("unknown command"), "{e}");
        let e = Request::parse(r#"{"cmd":"cancel","id":1,"after_chunks":"soon"}"#)
            .expect_err("bad after_chunks");
        assert!(e.contains("after_chunks"), "{e}");
    }
}
