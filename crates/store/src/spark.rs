//! Unicode sparklines over metric history.
//!
//! `store history <metric>` answers "what are the values"; the sparkline
//! view answers "what is the shape" — a regression that crept in over ten
//! runs is obvious as a bar ramp where a table of 10 floats is not. The
//! rendering is pure text (the eight U+2581..U+2588 block elements), so it
//! survives CI logs and `--out` capture byte-for-byte.

use crate::store::HistoryPoint;

/// The eight block elements, shortest to tallest.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as one bar character each, scaled so the minimum maps
/// to `▁` and the maximum to `█`. A flat series (or a single point) has no
/// shape to show and renders as mid-height `▄` bars; an empty series
/// renders as an empty string.
pub fn sparkline(values: &[f64]) -> String {
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if span > 0.0 {
                // Index 0..=7; the `min` guards the max-value rounding edge.
                BARS[((((v - min) / span) * 7.0).round() as usize).min(7)]
            } else {
                BARS[3]
            }
        })
        .collect()
}

/// Render integral values as the integers they are, everything else with
/// four decimals — matches how the store's own tables print measurements.
fn fmt_value(v: f64) -> String {
    // Exact-zero fraction: only a bit-exact integral value renders as an
    // integer.
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// One sparkline line per product, in order of first appearance in
/// `points` (which [`crate::RunStore::history`] yields in run order, so
/// the bars read oldest-to-newest left-to-right). Each line carries the
/// product, the bars, and the min/max/latest annotation that anchors the
/// bar scale to real numbers.
pub fn history_sparklines(points: &[HistoryPoint]) -> Vec<String> {
    let mut products: Vec<&str> = Vec::new();
    for p in points {
        if !products.contains(&p.product.as_str()) {
            products.push(&p.product);
        }
    }
    let width = products.iter().map(|p| p.chars().count()).max().unwrap_or(0);
    products
        .iter()
        .map(|product| {
            let series: Vec<&HistoryPoint> =
                points.iter().filter(|p| p.product == *product).collect();
            let values: Vec<f64> = series.iter().map(|p| p.value).collect();
            let (mut min, mut max) = (values[0], values[0]);
            for &v in &values[1..] {
                min = min.min(v);
                max = max.max(v);
            }
            let unit = &series[0].unit;
            let unit_suffix = if unit.is_empty() { String::new() } else { format!(" {unit}") };
            format!(
                "{product:width$}  {}  min {} max {} last {}{unit_suffix} ({} runs)",
                sparkline(&values),
                fmt_value(min),
                fmt_value(max),
                fmt_value(values[values.len() - 1]),
                values.len()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(product: &str, value: f64) -> HistoryPoint {
        HistoryPoint {
            run_id: "r".to_owned(),
            context: "bench".to_owned(),
            stamp: None,
            product: product.to_owned(),
            value,
            unit: "ms".to_owned(),
        }
    }

    #[test]
    fn ramps_span_the_full_bar_range() {
        let bars = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(bars, "▁▂▃▄▅▆▇█");
    }

    #[test]
    fn flat_and_single_series_render_mid_height() {
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
        assert_eq!(sparkline(&[42.0]), "▄");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn extremes_always_map_to_the_end_bars() {
        let bars: Vec<char> = sparkline(&[10.0, 11.0, 400.0]).chars().collect();
        assert_eq!(bars[0], '▁');
        assert_eq!(bars[2], '█');
    }

    #[test]
    fn history_lines_group_by_product_in_first_seen_order() {
        let points = vec![
            point("jobs=1", 100.0),
            point("jobs=8", 30.0),
            point("jobs=1", 80.0),
            point("jobs=8", 25.0),
            point("jobs=1", 60.0),
        ];
        let lines = history_sparklines(&points);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("jobs=1"), "{}", lines[0]);
        assert!(lines[0].contains("min 60 max 100 last 60 ms (3 runs)"), "{}", lines[0]);
        assert!(lines[1].contains("min 25 max 30 last 25 ms (2 runs)"), "{}", lines[1]);
        // Oldest-to-newest, falling: first bar tallest, last shortest.
        let bars: Vec<char> = lines[0].split_whitespace().nth(1).unwrap().chars().collect();
        assert_eq!(bars.first(), Some(&'█'));
        assert_eq!(bars.last(), Some(&'▁'));
    }

    #[test]
    fn fractional_annotations_keep_four_decimals() {
        let points = vec![point("overall", 3.25), point("overall", 3.5)];
        let lines = history_sparklines(&points);
        assert!(lines[0].contains("min 3.2500 max 3.5000 last 3.5000"), "{}", lines[0]);
    }

    #[test]
    fn empty_history_renders_no_lines() {
        assert!(history_sparklines(&[]).is_empty());
    }
}
