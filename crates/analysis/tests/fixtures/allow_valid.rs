// A valid allow directive: known rule, non-empty reason, trailing the
// offending line. The finding is suppressed and the reason recorded.
// Linted as crate `idse-telemetry`, FileKind::Library.
use idse_sim::event::EventQueue; // idse-lint: allow(sink-side-effect, reason = "type name only; telemetry never schedules through it")

pub fn seen() -> EventQueue // idse-lint: allow(sink-side-effect, reason = "type name only; telemetry never schedules through it")
{
    EventQueue::new() // idse-lint: allow(sink-side-effect, reason = "type name only; telemetry never schedules through it")
}
