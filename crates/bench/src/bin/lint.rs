//! `lint` — run the idse-lint workspace static-analysis pass.
//!
//! ```text
//! cargo run -p idse-bench --bin lint                  # human output, exit 1 on errors
//! cargo run -p idse-bench --bin lint -- --json out.json
//! cargo run -p idse-bench --bin lint -- --rules       # list the rules
//! ```
//!
//! The determinism guard is split between two tools. clippy
//! (`cargo clippy --workspace --all-targets -- -D warnings`) checks every
//! token rule through the workspace lint table and the root `clippy.toml`:
//! wall clocks, ambient entropy, raw threads, hash containers, exact float
//! compares, and panicking calls in library code. This binary checks the
//! rest, which clippy cannot express: seed lineage and label collisions,
//! store-record purity, telemetry side effects, and materialized feeds in
//! experiment code.
//!
//! One serial pass over the tree rooted at `--root` (default: the
//! enclosing workspace). stdout carries the findings listing and a summary
//! line that counts suppressions; `--json FILE` (`-` for stdout) writes
//! the full report, every finding and every suppression with its written
//! reason. Runs in CI after clippy; exits 1 when any error-severity
//! finding is active and 2 on a usage or I/O error.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    list_rules: bool,
}

fn usage() -> ! {
    eprintln!("usage: lint [--root DIR] [--json FILE|-] [--rules]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { root: workspace_root(), json: None, list_rules: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--json" => args.json = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--rules" => args.list_rules = true,
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

/// Write `text` to stdout and return `verdict`. A reader that closes the
/// pipe early (`lint --json - | head`) ends the output quietly; any other
/// write error is an I/O error.
fn emit(text: &str, verdict: ExitCode) -> ExitCode {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => verdict,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => verdict,
        Err(e) => {
            eprintln!("lint: failed to write stdout: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if args.list_rules {
        let listing: String = idse_lint::rules::RuleId::ALL
            .into_iter()
            .map(|rule| format!("{:<40} {}\n", rule.name(), rule.description()))
            .collect();
        return emit(&listing, ExitCode::SUCCESS);
    }

    let report = match idse_lint::run_workspace(&args.root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    let mut text = String::new();
    if let Some(path) = &args.json {
        let payload = serde_json::to_string_pretty(&report).expect("report serializes");
        if path == Path::new("-") {
            text.push_str(&payload);
            text.push('\n');
        } else if let Err(e) = std::fs::write(path, payload) {
            eprintln!("lint: failed to write json {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    text.push_str(&idse_lint::render_text(&report));

    emit(&text, if report.has_errors() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
