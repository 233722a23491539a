//! Malformed-JSON corpus for the vendored `serde_json` and the daemon's
//! request parser, generated from real lines: a serialized `JobSpec`, a
//! daemon request line, and the header and a record line of the
//! `runs/GOLDEN` run. Every truncation and single-byte mutation of them
//! must come back from `serde_json::from_str`, `JobSpec` deserialization
//! and `Request::parse` as `Ok` or `Err`, never as a panic.

use idse_daemon::Request;
use idse_eval::JobSpec;
use proptest::prelude::*;
use serde_json::Value;
use std::path::Path;

fn corpus() -> Vec<String> {
    let spec: JobSpec = serde_json::from_str(
        r#"{"kind":"stream","products":["nid","flow"],"seed":5,"rate":500.0,"transactions":20000,"chunk_records":1024,"shards":4,"store":{"dir":"runs"}}"#,
    )
    .expect("the spec parses");
    let spec = serde_json::to_string(&spec).expect("the spec serializes");
    let request = format!(r#"{{"cmd":"submit","spec":{spec}}}"#);
    let runs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../runs");
    let golden = std::fs::read_to_string(runs.join("GOLDEN")).expect("runs/GOLDEN is readable");
    let run = std::fs::read_to_string(runs.join(format!("{}.jsonl", golden.trim())))
        .expect("the GOLDEN run is readable");
    let mut lines = run.lines();
    let header = lines.next().expect("a header line").to_owned();
    let record = lines.nth(100).expect("a record line").to_owned();
    vec![spec, request, header, record]
}

/// Run one candidate line through every parser; a panic fails the test.
fn parse_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = serde_json::from_str::<Value>(&text);
    let _ = serde_json::from_str::<JobSpec>(&text);
    let _ = Request::parse(&text);
}

/// Bytes that change how a JSON parser reads what follows.
const STRUCTURAL: &[u8] = b"\"\\{}[],:-+.0eE \x00\x7f\xff";

#[test]
fn every_truncation_and_structural_substitution_parses_or_errs() {
    for line in corpus() {
        assert!(serde_json::from_str::<Value>(&line).is_ok(), "the whole line parses: {line}");
        let bytes = line.as_bytes();
        for at in 0..bytes.len() {
            parse_all(&bytes[..at]);
            for &byte in STRUCTURAL {
                let mut mutated = bytes.to_vec();
                mutated[at] = byte;
                parse_all(&mutated);
            }
        }
    }
}

proptest! {
    /// One byte replaced, optionally followed by a truncation.
    #[test]
    fn single_byte_mutations_of_real_lines_parse_or_err(
        which in 0usize..4,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        cut in any::<prop::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        let corpus = corpus();
        let mut bytes = corpus[which].as_bytes().to_vec();
        let at = at.index(bytes.len());
        bytes[at] = byte;
        if truncate {
            bytes.truncate(cut.index(bytes.len() + 1));
        }
        parse_all(&bytes);
    }
}
