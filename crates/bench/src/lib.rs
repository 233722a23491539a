//! # idse-bench — table/figure regeneration and micro-benchmarks
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` `table2` `table3` | the selected-metric tables with per-product scores |
//! | `figure1` | the generalized architecture, walked per product |
//! | `figure2` | the subprocess cardinality relations + conformance |
//! | `figure3` | FP/FN confusion counts and the paper's ratio formulas |
//! | `figure4` | error-rate curves vs sensitivity + Equal Error Rate |
//! | `figure5` | the weighted score computation `S = ΣΣ U·W` |
//! | `figure6` | requirement → metric weight mapping |
//! | `exp_host_overhead` | X1: §2.1 audit-cost percentages |
//! | `exp_payload_realism` | X2: random-flood vs realistic-content loads |
//! | `exp_site_profile` | X3: e-commerce-tuned IDS on cluster traffic |
//! | `exp_operating_point` | X4: §3.3 distributed operating-point rule |
//! | `lb_ablation` | load-balancing strategy ablation |
//! | `sensor_analyzer_split` | combined vs separated sensing/analysis |
//!
//! Criterion benches live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use idse_eval::feeds::FeedConfig;
use idse_eval::harness::{EvaluationRequest, ProductEvaluation};
use idse_eval::measure::EnvironmentNeeds;
use idse_eval::TestFeed;
use idse_sim::SimDuration;

/// The canonical master seed for the paper artifacts (the workshop date).
/// Defined next to the job specs so daemon submissions and the CLIs agree.
pub use idse_eval::service::STANDARD_SEED;

/// The standard evaluation setup shared by the table/figure binaries so
/// every artifact is computed from the same canned feed, parameterized by
/// the shared `--seed`/`--jobs` flags.
pub fn standard_setup_with(seed: u64, jobs: usize) -> (TestFeed, EvaluationRequest) {
    let request = EvaluationRequest::new()
        .with_feed(
            FeedConfig::builder()
                .session_rate(25.0)
                .training_span(SimDuration::from_secs(20))
                .test_span(SimDuration::from_secs(45))
                .campaign_intensity(2)
                .seed(seed)
                .build(),
        )
        .with_needs(EnvironmentNeeds::realtime_cluster(3_000.0))
        .with_sweep_steps(7)
        .with_max_throughput_factor(4096.0)
        .with_fp_budget(0.15)
        .with_jobs(jobs);
    let feed = request.build_feed();
    (feed, request)
}

/// [`standard_setup_with`] at the canonical seed, serial.
pub fn standard_setup() -> (TestFeed, EvaluationRequest) {
    standard_setup_with(STANDARD_SEED, 1)
}

/// Run the full standard evaluation (all four products).
pub fn standard_evaluation_with(
    seed: u64,
    jobs: usize,
) -> (TestFeed, EvaluationRequest, Vec<ProductEvaluation>) {
    let (feed, request) = standard_setup_with(seed, jobs);
    let evals = request.evaluate_all(&feed);
    (feed, request, evals)
}

/// Render a compact fixed-width table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(c.len());
            line.push_str(&format!("{c:<w$}  "));
        }
        line.trim_end().to_owned()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn standard_setup_is_reproducible() {
        let (a, _) = standard_setup();
        let (b, _) = standard_setup();
        assert_eq!(a.test.len(), b.test.len());
    }
}
