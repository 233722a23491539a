//! The determinism rules, as clippy enforces them, under test.
//!
//! The workspace `[workspace.lints.clippy]` table and `clippy.toml` carry
//! six token-level rules; each has one positive and one negative module
//! here. A positive case carries `#[expect(clippy::<lint>)]`: if clippy
//! ever stops flagging it, `cargo clippy --workspace --all-targets -- -D
//! warnings` fails through `unfulfilled_lint_expectations`. A negative case
//! carries nothing, so a new false positive fails the same run.
//!
//! This crate has no `clippy.toml` of its own: it is linted under the
//! root file, exactly like every other workspace crate.
//!
//! Two hazards have no case here:
//!
//! - an exact compare against zero (`w == 0.0`): `clippy::float_cmp`
//!   exempts it by design, which is what the exact-zero sentinels rely on;
//! - `rand::thread_rng()`: the vendored `rand` has no ambient-entropy
//!   source, so the call cannot compile; `RandomState` is the only
//!   reachable one and is covered.

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod float_eq_neg;
pub mod float_eq_pos;
pub mod panic_neg;
pub mod panic_pos;
pub mod thread_outside_exec_neg;
pub mod thread_outside_exec_pos;
pub mod unordered_iteration_neg;
pub mod unordered_iteration_pos;
pub mod unseeded_entropy_neg;
pub mod unseeded_entropy_pos;
pub mod wall_clock_neg;
pub mod wall_clock_pos;
