//! Property test of the daemon protocol over the socketless replay driver.
//!
//! Random request lines go through [`replay`]: known verbs with mistyped or
//! hostile fields, truncations of valid lines, deep nesting, and non-JSON.
//! No line may panic the core, every refusal must carry a reason, and once
//! every accepted job is cancelled the core is idle and the whole queue
//! capacity can be admitted again, so every slot came back. No script
//! drains or shuts down, so no job ever runs.

use idse_daemon::{replay, DaemonConfig, DaemonCore};
use proptest::prelude::*;
use serde_json::Value;

const CAPACITY: usize = 3;

/// Raw JSON values for request and spec fields: well-typed, mistyped, out
/// of range, and non-finite.
const VALUES: &[&str] = &[
    "null",
    "true",
    "-1",
    "0",
    "1",
    "2",
    "1.5",
    "1e999",
    "-1e999",
    "\"x\"",
    "\"stream\"",
    "\"evaluate\"",
    "\"web\"",
    "[]",
    "[\"flow\"]",
    "[\"nope\"]",
    "[1,2]",
    "{}",
    "{\"dir\":\"\"}",
    "{\"dir\":\"runs\"}",
    "4294967296",
    "18446744073709551615",
    "99999999999999999999",
    "1099511627776",
];

/// Every `JobSpec` field, plus one the spec does not have.
const SPEC_FIELDS: &[&str] = &[
    "kind",
    "profile",
    "weighting",
    "products",
    "seed",
    "rate",
    "sweep",
    "intensity",
    "sensitivity",
    "transactions",
    "hosts",
    "chunk_records",
    "shards",
    "fault_plan",
    "store",
    "color",
];

/// The verbs that neither run nor stop anything.
const VERBS: &[&str] = &["status", "watch", "cancel", "list", "submit", "teleport"];

const STREAM_SUBMIT: &str = r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"seed":11,"rate":500.0,"transactions":2000,"chunk_records":64,"shards":2}}"#;

/// Valid lines, whole or truncated.
const VALID: &[&str] = &[
    STREAM_SUBMIT,
    r#"{"cmd":"submit","spec":{"kind":"evaluate","sweep":3,"rate":10.0,"store":{"dir":"runs"}}}"#,
    r#"{"cmd":"status","id":1}"#,
    r#"{"cmd":"watch","id":2}"#,
    r#"{"cmd":"cancel","id":1,"after_chunks":3}"#,
    r#"{"cmd":"list"}"#,
];

/// A value for an id-like field: a job id that may exist, or anything.
fn id_value(choice: usize) -> String {
    match VALUES.get(choice) {
        Some(v) => (*v).to_owned(),
        None => (choice - VALUES.len() + 1).to_string(),
    }
}

fn request_line() -> impl Strategy<Value = String> {
    let spec_submit = prop::collection::vec((0..SPEC_FIELDS.len(), 0..VALUES.len()), 0..5)
        .prop_map(|fields| {
            let body: Vec<String> = fields
                .iter()
                .map(|&(f, v)| format!("\"{}\":{}", SPEC_FIELDS[f], VALUES[v]))
                .collect();
            format!(r#"{{"cmd":"submit","spec":{{{}}}}}"#, body.join(","))
        });
    let non_object_spec =
        (0..VALUES.len()).prop_map(|v| format!(r#"{{"cmd":"submit","spec":{}}}"#, VALUES[v]));
    let verb =
        (0..VERBS.len(), 0..VALUES.len() + 6, 0..VALUES.len() + 2).prop_map(|(verb, id, after)| {
            let mut line = format!(r#"{{"cmd":"{}","id":{}"#, VERBS[verb], id_value(id));
            if let Some(v) = VALUES.get(after) {
                line.push_str(&format!(r#","after_chunks":{v}"#));
            }
            line.push('}');
            line
        });
    let truncated = (0..VALID.len(), any::<prop::sample::Index>()).prop_map(|(i, cut)| {
        let line = VALID[i];
        line[..cut.index(line.len())].to_owned()
    });
    let deep = (1usize..4000).prop_map(|depth| "[".repeat(depth));
    prop_oneof![
        Just(STREAM_SUBMIT.to_owned()),
        spec_submit,
        non_object_spec,
        verb,
        truncated,
        deep,
        "[ -~]{0,40}",
    ]
}

fn parsed(line: &str) -> Result<Value, TestCaseError> {
    serde_json::from_str(line)
        .map_err(|e| TestCaseError::fail(format!("response is not JSON ({e}): {line}")))
}

proptest! {
    #[test]
    fn random_request_lines_never_panic_or_leak_a_slot(
        lines in prop::collection::vec(request_line(), 1..30),
    ) {
        let config = DaemonConfig::default().with_queue_capacity(CAPACITY);
        let mut core = DaemonCore::new(config).expect("a core without a journal opens");
        let out = replay(&mut core, &lines.join("\n")).expect("no journal, no drain: no I/O");

        let mut accepted = Vec::new();
        for line in &out {
            let v = parsed(line)?;
            match v.get("ok").and_then(Value::as_bool) {
                Some(false) => {
                    let reason = v.get("error").and_then(Value::as_str).unwrap_or("");
                    prop_assert!(!reason.trim().is_empty(), "refusal without a reason: {}", line);
                }
                // Only a submit answers with a label.
                Some(true) if v.get("label").is_some() => {
                    let id = v.get("id").and_then(Value::as_u64);
                    prop_assert!(id.is_some(), "accepted submit without an id: {}", line);
                    accepted.extend(id);
                }
                Some(true) => {}
                None => {
                    prop_assert!(v.get("event").is_some(), "neither response nor event: {}", line)
                }
            }
        }

        for id in accepted {
            let out = replay(&mut core, &format!(r#"{{"cmd":"cancel","id":{id}}}"#))
                .expect("cancel does no I/O without a journal");
            prop_assert_eq!(out.len(), 1);
            let v = parsed(&out[0])?;
            let cancelled = v.get("state").and_then(Value::as_str) == Some("cancelled");
            let error = v.get("error").and_then(Value::as_str).unwrap_or("");
            let already = error.contains("already");
            prop_assert!(cancelled || already, "job {} not cancelled: {}", id, out[0]);
        }
        let pending: Vec<u64> = core.pending().collect();
        prop_assert!(core.is_idle(), "pending after cancelling every job: {:?}", pending);

        let fresh = replay(&mut core, &[STREAM_SUBMIT; CAPACITY].join("\n")).expect("replay");
        for line in &fresh {
            let admitted = parsed(line)?.get("ok").and_then(Value::as_bool) == Some(true);
            prop_assert!(admitted, "slot held: {}", line);
        }
        let over = replay(&mut core, STREAM_SUBMIT).expect("replay");
        prop_assert!(over[0].contains("queue full"), "{}", over[0]);
    }
}
