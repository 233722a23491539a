//! `lint` — run the idse-lint workspace static-analysis pass.
//!
//! ```text
//! cargo run -p idse-bench --bin lint                  # human output, exit 1 on errors
//! cargo run -p idse-bench --bin lint -- --jobs 8      # parallel scan, identical bytes
//! cargo run -p idse-bench --bin lint -- --json out.json
//! cargo run -p idse-bench --bin lint -- --sarif lint.sarif
//! cargo run -p idse-bench --bin lint -- --stats       # per-crate rule-hit counts
//! cargo run -p idse-bench --bin lint -- --write-baseline lint-baseline.json
//! cargo run -p idse-bench --bin lint -- --rules       # list the rules
//! ```
//!
//! The determinism guard is split between two tools. clippy
//! (`cargo clippy --workspace --all-targets -- -D warnings`) checks the
//! direct token rules through the workspace lint table and `clippy.toml`:
//! wall clocks, ambient entropy, raw threads, hash containers in report
//! crates, exact float compares, and panicking calls in library code. This
//! binary checks the rest, which clippy cannot express: transitive taint
//! through the call graph, seed lineage and label collisions, reduction
//! order over `par_map`, store-record purity, telemetry side effects, and
//! materialized feeds in experiment code.
//!
//! Runs in CI after clippy; exits nonzero when any error-severity finding
//! is active. `--jobs N` fans the per-file phase out over N workers
//! (`0` = one per core) and is guaranteed byte-identical to serial for the
//! text, JSON, and SARIF outputs — CI diffs them. `--stats` prints the
//! suppression-debt ledger (per-crate, per-rule error/warning/suppressed
//! counts) so allowlist growth is visible over time; `--write-baseline`
//! snapshots it to the committed `lint-baseline.json`. The wall time
//! prints to stderr so it never perturbs the diffable stdout.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    jobs: Option<usize>,
    json: Option<PathBuf>,
    sarif: Option<PathBuf>,
    stats: bool,
    write_baseline: Option<PathBuf>,
    list_rules: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lint [--root DIR] [--jobs N] [--json FILE|-] [--sarif FILE|-] [--stats]\n\
         \x20           [--write-baseline FILE] [--rules]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        root: workspace_root(),
        jobs: None,
        json: None,
        sarif: None,
        stats: false,
        write_baseline: None,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.jobs = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--json" => args.json = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--sarif" => args.sarif = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--stats" => args.stats = true,
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--rules" => args.list_rules = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// The workspace root: walk up from the current directory to the first
/// Cargo.toml containing a `[workspace]` table.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn emit(path: &Path, what: &str, payload: &str) -> Result<(), ExitCode> {
    if path == Path::new("-") {
        println!("{payload}");
        return Ok(());
    }
    std::fs::write(path, payload).map_err(|e| {
        eprintln!("lint: failed to write {what} {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args = parse_args();

    if args.list_rules {
        for rule in idse_lint::rules::RuleId::ALL {
            println!("{:<40} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let ws = match idse_lint::load_workspace(&args.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let exec = match args.jobs {
        Some(n) => idse_exec::Executor::new(n),
        None => idse_exec::Executor::serial(),
    };
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "wall time of the lint itself, printed to stderr outside the diffed output"
    )]
    let started = std::time::Instant::now();
    let report = idse_lint::analyze(&ws, &exec);
    eprintln!("lint: analyzed in {} ms", started.elapsed().as_millis());

    if let Some(path) = &args.json {
        let payload = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(code) = emit(path, "json", &payload) {
            return code;
        }
    }

    if let Some(path) = &args.sarif {
        let payload = idse_lint::sarif::to_sarif(&report);
        if let Err(code) = emit(path, "sarif", &payload) {
            return code;
        }
    }

    if let Some(path) = &args.write_baseline {
        let payload = serde_json::to_string_pretty(&report.stats()).expect("stats serialize");
        if let Err(e) = std::fs::write(path, payload + "\n") {
            eprintln!("lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    print!("{}", idse_lint::render_text(&report));

    if args.stats {
        print!("{}", report.stats().render_table());
    }

    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
