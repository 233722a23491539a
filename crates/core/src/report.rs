//! Report rendering: the scorecard tables as text.
//!
//! The benches print these; EXPERIMENTS.md embeds them. Formats follow the
//! paper's presentation: metrics grouped by class, one column per
//! evaluated system, weighted class subtotals and the Figure 5 total.

use crate::catalog::{self};
use crate::metric::{MetricClass, MetricDef};
use crate::score::{Scorecard, WeightSet};

/// Render one class's metric definitions in the paper's table style
/// (name + description), e.g. to regenerate Tables 1–3.
pub fn render_metric_table(class: MetricClass, only_paper_selected: bool) -> String {
    let mut out = String::new();
    let metrics: Vec<MetricDef> = catalog::metrics_of_class(class)
        .into_iter()
        .filter(|m| !only_paper_selected || m.in_paper_table)
        .collect();
    let name_w = metrics.iter().map(|m| m.name.len()).max().unwrap_or(10).max(6);
    out.push_str(&format!("{} Metrics (class {})\n", class.name(), class.index()));
    out.push_str(&format!("{}\n", "=".repeat(name_w + 64)));
    for m in &metrics {
        let mut desc = m.description.to_string();
        let mut first = true;
        while !desc.is_empty() {
            let take = desc
                .char_indices()
                .take_while(|&(i, _)| i < 60)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(desc.len());
            // Break at a word boundary where possible.
            let cut = if take < desc.len() {
                desc[..take].rfind(' ').map(|i| i + 1).unwrap_or(take)
            } else {
                take
            };
            let (line, rest) = desc.split_at(cut);
            if first {
                out.push_str(&format!("{:name_w$}  {}\n", m.name, line.trim_end()));
                first = false;
            } else {
                out.push_str(&format!("{:name_w$}  {}\n", "", line.trim_end()));
            }
            desc = rest.to_string();
        }
    }
    out
}

/// Render a side-by-side scorecard comparison under a weighting.
pub fn render_comparison(cards: &[&Scorecard], weights: &WeightSet) -> String {
    let mut out = String::new();
    let name_w = catalog::catalog().iter().map(|m| m.name.len()).max().unwrap_or(10);
    let col_w = cards.iter().map(|c| c.system.len()).max().unwrap_or(8).max(8);

    out.push_str(&format!("Scorecard comparison under weighting {:?}\n", weights.name));
    out.push_str(&format!("{:name_w$}  {:>6}", "Metric", "Weight"));
    for c in cards {
        out.push_str(&format!("  {:>col_w$}", c.system));
    }
    out.push('\n');
    out.push_str(&format!("{}\n", "-".repeat(name_w + 8 + (col_w + 2) * cards.len())));

    for class in MetricClass::ALL {
        out.push_str(&format!("--- {} (class {}) ---\n", class.name(), class.index()));
        for m in catalog::metrics_of_class(class) {
            let w = weights.get(m.id);
            // Exact-zero sentinel: Weights::get returns literal 0.0 for unset
            // metrics; this hides only never-weighted, never-scored rows.
            if w == 0.0 && cards.iter().all(|c| c.get(m.id).is_none()) {
                continue;
            }
            out.push_str(&format!("{:name_w$}  {:>6.1}", m.name, w));
            for c in cards {
                match c.get(m.id) {
                    Some(s) => out.push_str(&format!("  {:>col_w$}", s.value())),
                    None => out.push_str(&format!("  {:>col_w$}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:name_w$}  {:>6}",
            format!("S_{} (class subtotal)", class.index()),
            ""
        ));
        for c in cards {
            out.push_str(&format!("  {:>col_w$.1}", weights.class_score(c, class)));
        }
        out.push('\n');
    }

    out.push_str(&format!("{:name_w$}  {:>6}", "S (weighted total)", ""));
    for c in cards {
        out.push_str(&format!("  {:>col_w$.1}", weights.weighted_total(c)));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:name_w$}  {:>6}  (ideal standard: {:.1})\n",
        "",
        "",
        weights.ideal_total()
    ));
    out
}

/// Render a ranked summary: each system's total and percentage of the
/// ideal standard. The paper's methodology compares against the standard,
/// not systems against each other — the percentage column is the verdict.
pub fn render_ranking(cards: &[&Scorecard], weights: &WeightSet) -> String {
    let ideal = weights.ideal_total();
    let mut rows: Vec<(String, f64)> =
        cards.iter().map(|c| (c.system.clone(), weights.weighted_total(c))).collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("totals are finite"));
    let mut out = String::new();
    out.push_str(&format!("Ranking under {:?} (standard = {ideal:.1})\n", weights.name));
    for (i, (name, total)) in rows.iter().enumerate() {
        let pct = if ideal > 0.0 { 100.0 * total / ideal } else { 0.0 };
        out.push_str(&format!(
            "{}. {:24} {:>9.1}  ({pct:>5.1}% of standard)\n",
            i + 1,
            name,
            total
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricId;
    use crate::score::DiscreteScore;

    fn sample_card(name: &str, score: u8) -> Scorecard {
        let mut c = Scorecard::new(name);
        c.set(MetricId::Timeliness, DiscreteScore::new(score));
        c.set(MetricId::SystemThroughput, DiscreteScore::new(4 - score));
        c
    }

    #[test]
    fn metric_table_contains_paper_rows() {
        let t = render_metric_table(MetricClass::Logistical, true);
        assert!(t.contains("Distributed Management"));
        assert!(t.contains("Outsourced Solution"));
        assert!(!t.contains("Quality of Documentation"), "not in Table 1");
        let full = render_metric_table(MetricClass::Logistical, false);
        assert!(full.contains("Quality of Documentation"));
    }

    #[test]
    fn comparison_renders_scores_and_totals() {
        let a = sample_card("A", 4);
        let b = sample_card("B", 1);
        let mut w = WeightSet::new("t");
        w.set(MetricId::Timeliness, 2.0);
        w.set(MetricId::SystemThroughput, 1.0);
        let r = render_comparison(&[&a, &b], &w);
        assert!(r.contains("Timeliness"));
        assert!(r.contains("S (weighted total)"));
        // A: 4*2 + 0*1 = 8; B: 1*2 + 3*1 = 5.
        assert!(r.contains("8.0"));
        assert!(r.contains("5.0"));
    }

    #[test]
    fn ranking_orders_by_total() {
        let a = sample_card("Alpha", 4);
        let b = sample_card("Beta", 0);
        let mut w = WeightSet::new("t");
        w.set(MetricId::Timeliness, 1.0);
        let r = render_ranking(&[&b, &a], &w);
        let alpha_pos = r.find("Alpha").unwrap();
        let beta_pos = r.find("Beta").unwrap();
        assert!(alpha_pos < beta_pos, "higher total ranks first:\n{r}");
        assert!(r.contains("% of standard"));
    }

    #[test]
    fn long_descriptions_wrap() {
        let t = render_metric_table(MetricClass::Performance, true);
        // The zero-loss metric's description is long; it must wrap, so the
        // full text appears across lines without any line being huge.
        for line in t.lines() {
            assert!(line.len() < 140, "line too long: {line}");
        }
        assert!(t.contains("Maximal Throughput with Zero Loss"));
    }
}
