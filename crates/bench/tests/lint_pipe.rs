//! The `lint` binary against a reader that closes its stdout early.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_lint_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--json", "-"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lint starts");
    // Close the read end before lint has scanned anything, so its first
    // write meets a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("lint exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "exit {:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "lint wrote to stderr: {stderr}");
}
