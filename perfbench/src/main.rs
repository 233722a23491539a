//! The evaluator's benchmark: three workloads timed from outside through
//! the public API and the real `daemon serve` binary.
//!
//! ```text
//! perfbench --workload methodology|stream|service --seed N --seconds S
//!           --trace 0|1 [--daemon PATH] [--git-rev REV]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! workload through the layer calls with a span around each and prints
//! the per-layer metrics, the layers' coverage of the traced whole, and
//! the tracing overhead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/run.py` builds the evaluator and this binary and runs it.

mod methodology;
mod service;
mod stats;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use idse_eval::STANDARD_SEED;
use idse_ids::products::{IdsProduct, ProductId};

/// Worker threads per evaluation (`--jobs 2`), and the replay pool size.
pub const JOBS: usize = 2;

const WORKLOADS: [&str; 3] = ["methodology", "stream", "service"];

/// Scratch root, relative to the checkout: each run works in a
/// subdirectory it removes at exit; traced runs leave their spans here.
const WORKDIR: &str = "perfbench/.work";

/// End-to-end metrics, emitted by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("records_per_s", "records/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A layer
/// the workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.feed_build_s", "s"),
    ("traffic.training_s", "s"),
    ("traffic.records", "count"),
    ("eval.sweep_s", "s"),
    ("eval.throughput_s", "s"),
    ("eval.throughput_max_s", "s"),
    ("eval.merge_s", "s"),
    ("eval.ledger_s", "s"),
    ("ids.operate_s", "s"),
    ("ids.deploy_s.nid", "s"),
    ("ids.deploy_s.guard", "s"),
    ("ids.deploy_s.flow", "s"),
    ("ids.deploy_s.agent", "s"),
    ("ids.push_s.nid", "s"),
    ("ids.push_s.guard", "s"),
    ("ids.push_s.flow", "s"),
    ("ids.push_s.agent", "s"),
    ("ids.finish_s", "s"),
    ("ids.window_peak", "count"),
    ("store.commit_s", "s"),
    ("store.journal_appends", "count"),
    ("exec.busy_share", "ratio"),
    ("daemon.execute_ms", "ms"),
    ("daemon.overhead_ms", "ms"),
    ("daemon.submit_ms", "ms"),
    ("daemon.watch_lines", "count"),
    ("daemon.watch_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's scratch directory for stores, sockets and journals.
    pub workdir: PathBuf,
    pub daemon: Option<PathBuf>,
    pub git_rev: String,
}

impl Ctx {
    /// Whether a run that started at `started` and has timed `walls` so
    /// far should start another operation: only if it is expected to end
    /// less than half an operation past `--seconds`.
    pub fn another(&self, started: Instant, walls: &[f64]) -> bool {
        started.elapsed().as_secs_f64() + stats::median(walls) / 2.0 < self.seconds
    }

    pub fn run_id(&self) -> String {
        format!("{}-{:#x}-{}", self.workload, self.seed, std::process::id())
    }
}

/// Seed of a run's `index`-th job. The first is always the standard seed,
/// whose outputs are pinned (`runs/GOLDEN`, the stream digests), so every
/// run is checked against them; the second is the run seed, and the rest
/// are SplitMix64 steps from it.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    match index {
        0 => STANDARD_SEED,
        1 if seed != STANDARD_SEED => seed,
        _ => {
            let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// The metric-name suffix for a product.
pub fn short_name(product: &IdsProduct) -> &'static str {
    match product.id {
        ProductId::NidSentry => "nid",
        ProductId::GuardSecure => "guard",
        ProductId::FlowHunter => "flow",
        ProductId::AgentWatch => "agent",
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (`NaN` if absent).
pub fn vm_hwm_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// This process's peak resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    vm_hwm_mib("/proc/self/status")
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: usize,
    values: Vec<(String, f64, usize)>,
    spans: Option<(String, Vec<trace::LayerRow>)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_owned(), value, samples));
    }

    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    pub fn problem(&mut self, message: String) {
        eprintln!("check failed: {message}");
        self.problems += 1;
    }

    /// The job-level metrics of a workload whose jobs are whole
    /// operations, timed one after another.
    pub fn jobs(&mut self, walls: &[f64], records: u64) {
        let total: f64 = walls.iter().sum();
        self.set("wall_s", stats::median(walls), walls.len());
        self.set("records_per_s", records as f64 / total, walls.len());
        self.set("job_latency_p50_ms", stats::median(walls) * 1e3, walls.len());
        self.set("job_latency_p90_ms", stats::reported_tail(walls, 0.9) * 1e3, walls.len());
        self.set("jobs_per_s", walls.len() as f64 / total, walls.len());
    }

    /// Keep the trace's layer table and its spans for the end of the run.
    pub fn finish_trace(&mut self, tracer: &trace::Tracer) {
        self.spans = Some((tracer.to_jsonl(), tracer.layer_table()));
    }

    fn value(&self, name: &str) -> Option<(f64, usize)> {
        self.values.iter().find(|(n, _, _)| n == name).map(|(_, v, s)| (*v, *s))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload methodology|stream|service --seed N --seconds S --trace 0|1\n\
         \x20                [--daemon PATH] [--git-rev REV]"
    );
    std::process::exit(2);
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Ctx {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: STANDARD_SEED,
        seconds: 30.0,
        trace: false,
        workdir: PathBuf::new(),
        daemon: None,
        git_rev: "unknown".to_owned(),
    };
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = parse_seed(&value).unwrap_or_else(|| usage()),
            "--seconds" => ctx.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--daemon" => ctx.daemon = Some(PathBuf::from(value)),
            "--git-rev" => ctx.git_rev = value,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        usage();
    }
    ctx.workdir = Path::new(WORKDIR).join(format!("{}-{}", ctx.workload, std::process::id()));
    ctx
}

fn main() {
    let steal_before = host_steal();
    let ctx = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.workdir) {
        eprintln!("error: creating {}: {e}", ctx.workdir.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    let outcome = match ctx.workload.as_str() {
        "methodology" => {
            methodology::run(&ctx, &mut report);
            Ok(())
        }
        "stream" => {
            stream::run(&ctx, &mut report);
            Ok(())
        }
        _ => service::run(&ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.workdir);
    if let Err(e) = outcome {
        eprintln!("error: {} workload: {e}", ctx.workload);
        std::process::exit(1);
    }
    let steal = match (steal_before, host_steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    print_result(&ctx, &report, steal);
}

/// Host-wide `(steal, total)` CPU time from `/proc/stat`: the share of
/// time a hypervisor ran other guests on this machine's CPUs, which slows
/// every timing in the run.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn print_result(ctx: &Ctx, report: &Report, steal: f64) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={:#x} seconds={} trace={} cores={cores} workers={JOBS} \
         git_rev={} host_steal={steal:.4}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8, ctx.git_rev
    );
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut correct = report.problems == 0 && report.attempted > 0;
    let mut metrics = Vec::with_capacity(wanted.len());
    println!("{:<24} {:>16} {:<10} {:>7}", "metric", "value", "unit", "samples");
    for &(name, unit) in wanted {
        let (value, samples) = report.value(name).unwrap_or((0.0, 0));
        if !value.is_finite() {
            eprintln!("error: metric {name} was not measured");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<24} {value:>16.6} {unit:<10} {samples:>7}");
        metrics.push(format!("{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}"));
    }
    println!(
        "{:<24} {:>16.6} {:<10} {:>7}",
        "failed_ratio",
        stats::failed_ratio(report.failed, report.attempted),
        "ratio",
        report.attempted
    );
    if let Some((_, n)) = report.value("job_latency_p90_ms").filter(|_| !ctx.trace) {
        if stats::samples_beyond(n, 0.9) < stats::MIN_TAIL_SAMPLES {
            println!(
                "job_latency_p90_ms: {n} jobs leave fewer than {} beyond p90, so it reports the median",
                stats::MIN_TAIL_SAMPLES
            );
        }
    }
    if let Some((jsonl, table)) = &report.spans {
        println!("{:<24} {:>7} {:>12} {:>12}", "span", "count", "total_s", "self_s");
        for (name, count, total, own) in table {
            println!("{name:<24} {count:>7} {total:>12.6} {own:>12.6}");
        }
        let path = Path::new(WORKDIR).join(format!("trace-{}.jsonl", ctx.run_id()));
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
