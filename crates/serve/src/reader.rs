//! Reader handles: private solution mirrors that catch up lazily from
//! the broadcast delta log.

use crate::log::{SeqEntry, SharedLog};
use crate::metrics::ServiceMetrics;
use dynamis_core::{MirrorError, SolutionMirror};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An independent, concurrently usable view of the served solution.
///
/// Each handle owns a private [`SolutionMirror`] and a position in the
/// sequenced delta log. Queries first *sync* — apply every delta
/// published since the handle last looked, cloning only `Arc`s under
/// the log mutex — and then answer from the mirror. A reader therefore
/// never touches the engine, never blocks a round for more than an
/// `Arc` clone, and never rematerializes the solution from scratch
/// (except when re-seeding after falling behind the log's retained
/// window).
///
/// Handles are `Send`: create one per query thread via
/// [`ReaderHandle::fork`] (or [`crate::ServiceHandle::reader`]).
///
/// ```
/// use dynamis_core::EngineBuilder;
/// use dynamis_graph::DynamicGraph;
/// use dynamis_serve::{MisService, ServeConfig};
///
/// let g = DynamicGraph::from_edges(5, &[(0, 1), (2, 3)]);
/// let (service, mut reader) =
///     MisService::spawn(EngineBuilder::on(g), ServeConfig::default()).unwrap();
///
/// // A reader answers from its private mirror — never from the engine.
/// assert_eq!(reader.len(), 3);
/// assert!(reader.contains(4));
///
/// // Forked readers are independent: hand one to each query thread.
/// let mut fork = reader.fork();
/// let t = std::thread::spawn(move || fork.snapshot());
/// assert_eq!(t.join().unwrap(), reader.snapshot());
/// # service.shutdown();
/// ```
#[derive(Debug)]
pub struct ReaderHandle {
    log: Arc<SharedLog>,
    metrics: Arc<ServiceMetrics>,
    mirror: SolutionMirror,
    seq: u64,
    /// Last-synced seq, read at snapshot time for the reader-lag gauge.
    slot: Arc<AtomicU64>,
    /// Reusable catch-up buffer (no steady-state allocation).
    scratch: Vec<Arc<SeqEntry>>,
    last_desync: Option<MirrorError>,
}

impl ReaderHandle {
    pub(crate) fn new(log: Arc<SharedLog>, metrics: Arc<ServiceMetrics>) -> Self {
        let slot = metrics.register_reader(0);
        ReaderHandle {
            log,
            metrics,
            mirror: SolutionMirror::new(),
            seq: 0,
            slot,
            scratch: Vec::new(),
            last_desync: None,
        }
    }

    /// Applies every delta published since this handle last synced;
    /// returns the sequence number now reflected by the mirror.
    pub fn sync(&mut self) -> u64 {
        let r = self
            .log
            .catch_up(&mut self.mirror, self.seq, &mut self.scratch);
        self.seq = r.seq;
        if r.resynced {
            self.metrics.resyncs.inc();
        }
        if let Some(err) = r.desync {
            self.metrics.desyncs.inc();
            self.last_desync = Some(err);
        }
        self.slot.store(self.seq, Ordering::Relaxed);
        self.seq
    }

    /// O(1) membership test against the freshly synced mirror.
    pub fn contains(&mut self, v: u32) -> bool {
        self.sync();
        self.mirror.contains(v)
    }

    /// Current solution size.
    pub fn len(&mut self) -> usize {
        self.sync();
        self.mirror.len()
    }

    /// Whether the solution is empty.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Materializes the current solution (sorted vertex ids) — same
    /// shape as [`dynamis_core::DynamicMis::solution`].
    pub fn snapshot(&mut self) -> Vec<u32> {
        self.sync();
        self.mirror.solution()
    }

    /// The sequence number the mirror reflects (as of the last sync —
    /// this accessor does not sync).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The last mirror desync this handle recovered from, if any ever
    /// happened (typed — see [`MirrorError`]). Always `None` unless the
    /// broadcast path has a bug.
    pub fn last_desync(&self) -> Option<MirrorError> {
        self.last_desync
    }

    /// A new independent reader starting at this handle's position
    /// (cheap: clones the mirror, not the log).
    pub fn fork(&self) -> ReaderHandle {
        ReaderHandle {
            log: Arc::clone(&self.log),
            metrics: Arc::clone(&self.metrics),
            mirror: self.mirror.clone(),
            seq: self.seq,
            slot: self.metrics.register_reader(self.seq),
            scratch: Vec::new(),
            last_desync: None,
        }
    }
}
