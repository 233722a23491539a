// Invalid allow directives: one missing its reason, one naming an
// unknown rule. Both are errors, and neither suppresses the underlying
// finding. Linted as crate `idse-telemetry`, FileKind::Library.

// idse-lint: allow(sink-side-effect)
use idse_sim::event::EventQueue;

// idse-lint: allow(no-such-rule, reason = "misremembered the rule name")
pub fn seen() -> EventQueue {
    EventQueue::new()
}
