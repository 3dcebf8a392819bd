//! Service telemetry: one private [`MetricsRegistry`] per service,
//! holding every `serve_*` series (and the `net_*` series a network
//! front end registers through [`crate::IngestHandle::registry`]).
//! Each event is recorded once, into the handle cached here; the
//! gauges whose value the service already holds elsewhere (log head,
//! live readers, reader lag) are read when a snapshot is taken.

use crate::log::SharedLog;
use dynamis_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// The cached handles the rounds, the ingest handles, and the readers
/// record through.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    log: Arc<SharedLog>,
    /// `serve_submitted_total`: updates ever accepted into the queue.
    pub submitted: Arc<Counter>,
    /// `serve_queue_depth`: updates admitted and not yet handed to the
    /// engine. The gauge is the live count itself (added on submit,
    /// subtracted per round), so admission control and every
    /// snapshot read the same value.
    pub queue_depth: Arc<Gauge>,
    /// `serve_applied_total`.
    pub applied: Arc<Counter>,
    /// `serve_rejected_total`: each rejection's typed error went to its
    /// ticket.
    pub rejected: Arc<Counter>,
    /// `serve_batch_size`: one sample per merged batch a round fed
    /// through `try_apply_batch` (its count is the batch count).
    pub batch_size: Arc<Histogram>,
    /// `serve_resyncs_total`: reader re-seeds from the log checkpoint.
    pub resyncs: Arc<Counter>,
    /// `serve_desyncs_total`: deltas a reader's mirror refused (nonzero
    /// means a broadcast bug).
    pub desyncs: Arc<Counter>,
    head_seq: Arc<Gauge>,
    readers: Arc<Gauge>,
    reader_lag_max: Arc<Gauge>,
    /// Per-reader last-synced sequence numbers (weak: a dropped reader
    /// deregisters itself by virtue of the Arc dying).
    reader_slots: Mutex<Vec<Weak<AtomicU64>>>,
    /// The four round latency stages (process-global
    /// histograms, like every stage timer).
    pub ingest_wait: Stage,
    pub batch_drain: Stage,
    pub engine_apply: Stage,
    pub delta_broadcast: Stage,
}

impl ServiceMetrics {
    pub fn new(log: Arc<SharedLog>) -> ServiceMetrics {
        let r = Arc::new(MetricsRegistry::new());
        ServiceMetrics {
            submitted: r.counter("serve_submitted_total"),
            queue_depth: r.gauge("serve_queue_depth"),
            applied: r.counter("serve_applied_total"),
            rejected: r.counter("serve_rejected_total"),
            batch_size: r.histogram("serve_batch_size"),
            resyncs: r.counter("serve_resyncs_total"),
            desyncs: r.counter("serve_desyncs_total"),
            head_seq: r.gauge("serve_head_seq"),
            readers: r.gauge("serve_readers"),
            reader_lag_max: r.gauge("serve_reader_lag_max"),
            reader_slots: Mutex::new(Vec::new()),
            ingest_wait: Stage::global("serve_ingest_wait_ns"),
            batch_drain: Stage::global("serve_batch_drain_ns"),
            engine_apply: Stage::global("serve_engine_apply_ns"),
            delta_broadcast: Stage::global("serve_delta_broadcast_ns"),
            registry: r,
            log,
        }
    }

    /// The service's private registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Registers a reader's sequence slot for lag reporting.
    pub fn register_reader(&self, start_seq: u64) -> Arc<AtomicU64> {
        let slot = Arc::new(AtomicU64::new(start_seq));
        let mut slots = self.reader_slots.lock().unwrap();
        slots.retain(|w| w.strong_count() > 0);
        slots.push(Arc::downgrade(&slot));
        slot
    }

    /// The global snapshot merged with this service's own, after
    /// reading the snapshot-time gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let head = self.log.head();
        let (mut live, mut oldest) = (0u64, head);
        for w in self.reader_slots.lock().unwrap().iter() {
            if let Some(slot) = w.upgrade() {
                live += 1;
                oldest = oldest.min(slot.load(Ordering::Relaxed));
            }
        }
        self.head_seq.set(head);
        self.readers.set(live);
        self.reader_lag_max.set(head - oldest);
        let mut snap = dynamis_obs::global().snapshot();
        snap.merge(&self.registry.snapshot());
        snap
    }
}

#[cfg(test)]
mod tests {
    use crate::{MisService, ServeConfig};
    use dynamis_core::EngineBuilder;
    use dynamis_graph::{DynamicGraph, Update};

    #[test]
    fn snapshot_reports_reader_lag() {
        let g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]);
        let (service, mut fast) =
            MisService::spawn(EngineBuilder::on(g), ServeConfig::default()).unwrap();
        let slow = service.reader(); // never syncs: stays at seq 0
                                     // 4 and 5 are both in the solution; the edge evicts one.
        let seq = service.submit(Update::InsertEdge(4, 5)).unwrap();
        assert_eq!(seq.wait().unwrap(), 2, "after the bootstrap delta");
        fast.sync();
        let m = service.metrics();
        assert_eq!(m.gauge("serve_head_seq"), Some(2));
        assert_eq!(m.gauge("serve_readers"), Some(2));
        assert_eq!(m.gauge("serve_reader_lag_max"), Some(2));
        drop(slow);
        let m = service.metrics();
        assert_eq!(
            m.gauge("serve_readers"),
            Some(1),
            "dropped reader deregisters"
        );
        assert_eq!(m.gauge("serve_reader_lag_max"), Some(0));
        service.shutdown();
    }
}
