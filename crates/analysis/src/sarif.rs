//! SARIF 2.1.0 output for CI code-scanning upload.
//!
//! One run, one driver (`idse-lint`), the full rule table from
//! [`RuleId::ALL`], and one result per finding. Transitive findings carry
//! their witness chain as a `codeFlows` thread flow; suppressed findings
//! are emitted as results with an `inSource` suppression whose
//! justification is the allow directive's written reason — so suppression
//! debt is visible in code-scanning UIs, not just in the stats table.
//!
//! The document is built on the insertion-ordered [`serde_json::Value`]
//! shim, so identical reports serialize to identical bytes — `--sarif` is
//! covered by the same `--jobs N` byte-identity guarantee as the text and
//! JSON outputs.

use crate::rules::RuleId;
use crate::{Finding, Report};
use serde_json::{json, Value};

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

fn rule_index(rule: &str) -> u64 {
    RuleId::ALL.iter().position(|r| r.name() == rule).map(|i| i as u64).unwrap_or(0)
}

fn level(severity: &str) -> &'static str {
    if severity == "error" {
        "error"
    } else {
        "warning"
    }
}

fn location(f: &Finding) -> Value {
    json!({
        "physicalLocation": json!({
            "artifactLocation": json!({ "uri": f.file.clone() }),
            "region": json!({
                "startLine": f.line as u64,
                "startColumn": f.column as u64,
            }),
        }),
    })
}

fn result(f: &Finding, suppression: Option<&str>) -> Value {
    let mut obj: Vec<(String, Value)> = vec![
        ("ruleId".to_string(), Value::Str(f.rule.clone())),
        ("ruleIndex".to_string(), Value::U64(rule_index(&f.rule))),
        ("level".to_string(), Value::Str(level(&f.severity).to_string())),
        ("message".to_string(), json!({ "text": f.message.clone() })),
        ("locations".to_string(), Value::Array(vec![location(f)])),
    ];
    if !f.chain.is_empty() {
        let steps: Vec<Value> = f
            .chain
            .iter()
            .map(|step| {
                json!({
                    "location": json!({ "message": json!({ "text": step.clone() }) }),
                })
            })
            .collect();
        obj.push((
            "codeFlows".to_string(),
            Value::Array(vec![json!({
                "threadFlows": Value::Array(vec![json!({
                    "locations": Value::Array(steps),
                })]),
            })]),
        ));
    }
    if let Some(justification) = suppression {
        obj.push((
            "suppressions".to_string(),
            Value::Array(vec![json!({
                "kind": "inSource",
                "justification": justification.to_string(),
            })]),
        ));
    }
    Value::Object(obj)
}

/// Render a report as a SARIF 2.1.0 document (pretty-printed, no trailing
/// newline).
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<Value> = RuleId::ALL
        .iter()
        .map(|r| {
            json!({
                "id": r.name(),
                "shortDescription": json!({ "text": r.description() }),
            })
        })
        .collect();
    let mut results: Vec<Value> = report.findings.iter().map(|f| result(f, None)).collect();
    results.extend(report.suppressed.iter().map(|s| result(&s.finding, Some(&s.reason))));
    let doc = json!({
        "$schema": SCHEMA,
        "version": "2.1.0",
        "runs": Value::Array(vec![json!({
            "tool": json!({
                "driver": json!({
                    "name": "idse-lint",
                    "rules": Value::Array(rules),
                }),
            }),
            "results": Value::Array(results),
        })]),
    });
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_source;
    use crate::rules::FileKind;

    #[test]
    fn findings_become_results_with_rule_indexes() {
        let r = analyze_source(
            "crates/telemetryx/src/lib.rs",
            "idse-telemetry",
            FileKind::Library,
            "use idse_sim::event::EventQueue;\n",
        );
        let sarif = to_sarif(&r);
        let doc: Value = serde_json::from_str(&sarif).expect("sarif parses back");
        let Value::Object(top) = &doc else { panic!("not an object") };
        assert!(top.iter().any(|(k, v)| k == "version" && *v == Value::Str("2.1.0".into())));
        assert!(sarif.contains("\"ruleId\": \"sink-side-effect\""));
        assert!(sarif.contains("\"startLine\": 1"));
    }

    #[test]
    fn suppressions_carry_the_written_reason() {
        let src = "use idse_sim::event::EventQueue; // idse-lint: allow(sink-side-effect, reason = \"membership only\")\n";
        let r = analyze_source("x.rs", "idse-telemetry", FileKind::Library, src);
        let sarif = to_sarif(&r);
        assert!(sarif.contains("\"kind\": \"inSource\""));
        assert!(sarif.contains("\"justification\": \"membership only\""));
    }

    #[test]
    fn output_is_deterministic() {
        let run = || {
            let r = analyze_source(
                "x.rs",
                "idse-telemetry",
                FileKind::Library,
                "use idse_sim::event::EventQueue;\n",
            );
            to_sarif(&r)
        };
        assert_eq!(run(), run());
    }
}
