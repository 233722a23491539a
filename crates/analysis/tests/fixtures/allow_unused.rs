// A well-formed allow directive that suppresses nothing: flagged as
// unused-allow so stale suppressions get deleted when the code they
// excused is fixed. Linted as crate `idse-telemetry`, FileKind::Library.

// idse-lint: allow(sink-side-effect, reason = "left over from a deleted benchmark")
pub fn advance(now_nanos: u64) -> u64 {
    now_nanos + 1
}
