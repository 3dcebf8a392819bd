//! Admission control: extends the serve layer's backpressure to
//! network clients with hysteresis, so a saturated ingest queue sheds
//! requests with a typed `Busy` reply instead of stalling the writer
//! (or the session thread) behind the blocking gate.
//!
//! The state machine mirrors the queue gate's batched-release shape:
//! shedding starts when the observed queue depth reaches `high` (or the
//! non-blocking submit path reports the queue full — the ground truth),
//! and stops only once the depth has drained to `low`. The wide gap
//! keeps the service from flapping between accept and shed at the
//! boundary, exactly like the writer's whole-round releases keep
//! feeders from waking once per slot.

use dynamis_obs::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Hysteretic shed/accept gate shared by every session thread.
#[derive(Debug)]
pub struct Admission {
    shedding: AtomicBool,
    high: u64,
    low: u64,
    /// Requests (and door-refused sessions) shed, exported as
    /// `net_shed_total`.
    shed: Arc<Counter>,
    /// Shed-state flips (both directions), exported as
    /// `net_shed_transitions_total`; each flip also records a
    /// `shed_on` / `shed_off` event.
    transitions: Arc<Counter>,
}

impl Admission {
    /// A gate that starts shedding at queue depth `high` and re-admits
    /// at `low` (clamped to `< high`), counting into `registry`.
    pub fn new(high: u64, low: u64, registry: &MetricsRegistry) -> Self {
        let high = high.max(1);
        Admission {
            shedding: AtomicBool::new(false),
            high,
            low: low.min(high - 1),
            shed: registry.counter("net_shed_total"),
            transitions: registry.counter("net_shed_transitions_total"),
        }
    }

    /// Records a shed-state flip: the transitions counter plus a ring
    /// event. `swap` at the call sites guarantees one record per actual
    /// transition even under racing sessions.
    fn on_transition(&self, shedding: bool, queue_depth: u64) {
        self.transitions.inc();
        let kind = if shedding { "shed_on" } else { "shed_off" };
        dynamis_obs::event(kind, format!("queue depth {queue_depth}"));
    }

    /// Decides one update request given the current ingest-queue depth.
    /// Returns `true` to admit; `false` means reply `Busy` (and the
    /// shed is already counted).
    pub fn admit(&self, queue_depth: u64) -> bool {
        if self.shedding.load(Ordering::Relaxed) {
            if queue_depth <= self.low {
                if self.shedding.swap(false, Ordering::Relaxed) {
                    self.on_transition(false, queue_depth);
                }
            } else {
                self.shed.inc();
                return false;
            }
        } else if queue_depth >= self.high {
            if !self.shedding.swap(true, Ordering::Relaxed) {
                self.on_transition(true, queue_depth);
            }
            self.shed.inc();
            return false;
        }
        true
    }

    /// Records that a non-blocking submit hit a full queue *after*
    /// admission — the ground truth overriding the sampled depth. Flips
    /// the gate into shedding so subsequent requests are refused at the
    /// door until the queue drains to `low`.
    pub fn on_queue_full(&self) {
        if !self.shedding.swap(true, Ordering::Relaxed) {
            self.on_transition(true, self.high);
        }
        self.shed.inc();
    }

    /// Records a shed that bypassed [`Admission::admit`] (e.g. a whole
    /// session refused at the accept door).
    pub fn count_shed(&self) {
        self.shed.inc();
    }

    /// Whether the gate is currently shedding.
    pub fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Relaxed)
    }

    /// Requests shed so far (monotone).
    pub fn shed_count(&self) -> u64 {
        self.shed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_does_not_flap_at_the_boundary() {
        let a = Admission::new(100, 25, &MetricsRegistry::new());
        assert!(a.admit(0));
        assert!(a.admit(99), "below high: admit");
        assert!(!a.admit(100), "at high: shed starts");
        assert!(a.is_shedding());
        // Depth dips just below high — still shedding (hysteresis).
        assert!(!a.admit(99));
        assert!(!a.admit(26));
        // Only at low does the gate reopen.
        assert!(a.admit(25));
        assert!(!a.is_shedding());
        assert_eq!(a.shed_count(), 3);
    }

    #[test]
    fn queue_full_is_ground_truth() {
        let a = Admission::new(1000, 10, &MetricsRegistry::new());
        assert!(a.admit(5));
        a.on_queue_full();
        assert!(a.is_shedding());
        assert!(
            !a.admit(500),
            "sampled depth below high, but queue said full"
        );
        assert!(a.admit(10));
    }
}
