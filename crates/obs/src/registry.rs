//! The name → metric registry. Registration is the cold path (mutexed
//! map, get-or-create); the returned `Arc` handles are what call sites
//! cache and record through lock-free.

use crate::events::EventLog;
use crate::hist::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricsSnapshot, SNAPSHOT_VERSION};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default event-ring capacity for a registry.
const EVENT_CAP: usize = 256;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics plus one event ring. Process-wide series
/// live in the global one ([`crate::global`]); each serving stack holds
/// a private one for its per-service series, and benches and tests may
/// hold their own.
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    events: EventLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
            events: EventLog::new(EVENT_CAP),
        }
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Get-or-create the gauge `name` (panics on a kind mismatch, as
    /// [`MetricsRegistry::counter`] does).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get-or-create the histogram `name` (panics on a kind mismatch,
    /// as [`MetricsRegistry::counter`] does).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.entry(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    fn entry(&self, name: &str, mk: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap();
        map.entry(name.to_string()).or_insert_with(mk).clone()
    }

    /// Removes a metric (used for per-entity series — e.g. the
    /// per-subscriber lag gauges — so the registry stays bounded by
    /// *live* entities). Handles already held keep working; they just
    /// stop being exported.
    pub fn unregister(&self, name: &str) {
        self.metrics.lock().unwrap().remove(name);
    }

    /// The registry's event ring.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// A consistent-enough point-in-time view of every metric, sorted
    /// by name (the map is ordered), plus the retained events.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in self.metrics.lock().unwrap().iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => histograms.push((name.clone(), h.snapshot())),
            }
        }
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            counters,
            gauges,
            histograms,
            events: self.events.snapshot(),
            events_dropped: self.events.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create_and_snapshot_is_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("depth").set(7);
        r.histogram("lat_ns").record(100);
        assert_eq!(r.counter("b_total").get(), 2, "same handle");
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_total".into(), 1), ("b_total".into(), 2)]
        );
        assert_eq!(snap.gauges, vec![("depth".into(), 7)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn unregister_bounds_per_entity_series() {
        let r = MetricsRegistry::new();
        let g = r.gauge("net_sub_lag_5");
        g.set(3);
        r.unregister("net_sub_lag_5");
        assert!(r.snapshot().gauges.is_empty());
        g.set(9); // the held handle stays harmless
    }
}
