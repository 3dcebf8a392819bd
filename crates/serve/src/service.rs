//! The service: one writer thread owning the engine, an MPSC ingest
//! queue with adaptive batching, and handles for submitting work.

use crate::error::ServeError;
use crate::log::SharedLog;
use crate::metrics::ServiceMetrics;
use crate::reader::ReaderHandle;
use dynamis_core::{DynamicMis, EngineBuilder, EngineError};
use dynamis_graph::Update;
use dynamis_obs::{MetricsRegistry, MetricsSnapshot};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Tuning knobs for [`MisService::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Ingest-queue capacity, in *updates* (a batch counts its length;
    /// an oversized batch is admitted alone into an empty queue). A
    /// full queue blocks `submit` and fails `try_submit` — the
    /// service's backpressure. The gate uses hysteresis: the writer
    /// frees a whole drained round at once, so a saturating feeder
    /// parks once per round, not once per update.
    pub queue_updates: usize,
    /// Maximum updates merged into one engine batch. The writer drains
    /// whatever is queued up to this burst, so queue pressure
    /// automatically amortizes per-update overhead (deferred swap
    /// search, one broadcast per burst).
    pub burst: usize,
    /// Delta-log entries retained before folding into the checkpoint;
    /// readers lagging by more than this re-seed from the checkpoint.
    pub log_window: usize,
    /// Re-bases the broadcast log at this sequence number (0 = fresh
    /// start). A restarted durable service sets it to one past its
    /// recovered update count: the engine's construction-time solution
    /// is installed as the log's base checkpoint instead of being
    /// broadcast as a bootstrap delta, so subscribers from the previous
    /// life re-seed from the recovered state and resume gap-free.
    pub first_seq: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_updates: 1024,
            burst: 256,
            log_window: 1024,
            first_seq: 0,
        }
    }
}

/// One ingest command: its updates plus an optional reply channel
/// (absent for fire-and-forget submissions). Single updates travel
/// inline — a `submit` allocates no `Vec`.
struct Cmd {
    payload: Payload,
    reply: Option<mpsc::Sender<Vec<Result<u64, EngineError>>>>,
    /// Submission time, captured only while stage timing is enabled —
    /// the writer charges `recv → drain` to the ingest-wait stage.
    queued_at: Option<Instant>,
}

enum Payload {
    One(Update),
    Many(Vec<Update>),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::One(_) => 1,
            Payload::Many(v) => v.len(),
        }
    }

    /// Backpressure weight: an empty batch still occupies one slot so
    /// a flood of no-op commands cannot bypass the gate.
    fn weight(&self) -> u64 {
        (self.len() as u64).max(1)
    }
}

/// The ingest gate: bounds queued updates with a counting semaphore
/// whose release side is batched. Feeders block (or fail, on the `try`
/// path) while the queue is at capacity; the writer releases one whole
/// drained round at a time, so a saturated feeder wakes once per round
/// instead of once per freed slot — the park/unpark cost is amortized
/// over the burst.
#[derive(Debug)]
struct Backpressure {
    state: Mutex<BpState>,
    cv: Condvar,
    limit: u64,
}

#[derive(Debug, Default)]
struct BpState {
    depth: u64,
    /// Set when the writer thread is gone (normal exit or panic):
    /// blocked feeders must wake and fail instead of waiting forever
    /// for a release that will never come.
    closed: bool,
}

impl Backpressure {
    fn new(limit: usize) -> Self {
        Backpressure {
            state: Mutex::new(BpState::default()),
            cv: Condvar::new(),
            limit: limit.max(1) as u64,
        }
    }

    /// Admits `weight` queued updates, waiting (or failing) while the
    /// queue is full. An oversized request is admitted alone into an
    /// empty queue rather than deadlocking.
    fn acquire(&self, weight: u64, blocking: bool) -> Result<(), ServeError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(ServeError::Stopped);
            }
            if !(st.depth > 0 && st.depth + weight > self.limit) {
                break;
            }
            if !blocking {
                return Err(ServeError::QueueFull);
            }
            st = self.cv.wait(st).unwrap();
        }
        st.depth += weight;
        Ok(())
    }

    /// Returns a whole drained round's weight and wakes blocked
    /// feeders.
    fn release(&self, weight: u64) {
        let mut st = self.state.lock().unwrap();
        st.depth -= weight;
        drop(st);
        self.cv.notify_all();
    }

    /// Marks the writer as gone and wakes every blocked feeder.
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }
}

/// Closes the backpressure gate when the writer thread exits — on the
/// normal path *and* when a (custom) engine panics mid-apply, so
/// feeders blocked in `acquire` fail with [`ServeError::Stopped`]
/// instead of hanging forever.
struct CloseGateOnExit<'a>(&'a Backpressure);

impl Drop for CloseGateOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// What the writer thread hands back when the service shuts down.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// `DynamicMis::name` of the served engine.
    pub engine: String,
    /// The engine's final materialized solution (sorted).
    pub solution: Vec<u32>,
    /// Final head of the broadcast log.
    pub head_seq: u64,
    /// Final telemetry snapshot — the same view as
    /// [`ServiceHandle::metrics`].
    pub metrics: MetricsSnapshot,
}

/// Receipt for a single-update submission.
///
/// Dropping a ticket without waiting is allowed (fire-and-forget after
/// the fact); the writer's send to it simply goes nowhere.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Vec<Result<u64, EngineError>>>,
}

impl Ticket {
    /// Blocks until the update was applied (the sequence number of the
    /// broadcast batch containing it) or rejected (the engine's typed
    /// error, as [`ServeError::Rejected`]).
    pub fn wait(self) -> Result<u64, ServeError> {
        let mut results = self.rx.recv().map_err(|_| ServeError::Stopped)?;
        match results.pop() {
            Some(Ok(seq)) => Ok(seq),
            Some(Err(e)) => Err(ServeError::Rejected(e)),
            None => Err(ServeError::Stopped),
        }
    }
}

/// Receipt for a batch submission: one `Result` per submitted update,
/// in submission order.
#[derive(Debug)]
pub struct BatchTicket {
    rx: mpsc::Receiver<Vec<Result<u64, EngineError>>>,
}

impl BatchTicket {
    /// Blocks until the whole batch went through the engine. Unlike
    /// [`dynamis_core::DynamicMis::try_apply_batch`], a rejection does
    /// not stop the rest of the batch: each update gets its own
    /// `Result` (the sequence number of its broadcast, or the engine's
    /// rejection).
    pub fn wait(self) -> Result<Vec<Result<u64, EngineError>>, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Stopped)
    }
}

/// A cloneable, submit-only handle for feeder threads. All clones feed
/// the same bounded queue; the service shuts down only after every
/// ingest handle (and the [`ServiceHandle`]) is dropped.
#[derive(Clone)]
pub struct IngestHandle {
    tx: mpsc::Sender<Cmd>,
    bp: Arc<Backpressure>,
    metrics: Arc<ServiceMetrics>,
}

impl IngestHandle {
    fn send(&self, payload: Payload, want_ticket: bool, blocking: bool) -> SendOutcome {
        let n = payload.len() as u64;
        let weight = payload.weight();
        self.bp.acquire(weight, blocking)?;
        let (reply, rx) = if want_ticket {
            let (tx, rx) = mpsc::channel();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        self.metrics.queue_depth.add(n);
        let queued_at = dynamis_obs::mark();
        match self.tx.send(Cmd {
            payload,
            reply,
            queued_at,
        }) {
            Ok(()) => {
                self.metrics.submitted.add(n);
                Ok(rx)
            }
            Err(_) => {
                self.bp.release(weight);
                self.metrics.queue_depth.sub(n);
                Err(ServeError::Stopped)
            }
        }
    }

    /// Enqueues one update, blocking while the queue is full. The
    /// ticket reports the typed outcome.
    pub fn submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.send(Payload::One(update), true, true)
            .map(|rx| Ticket { rx: rx.unwrap() })
    }

    /// Like [`IngestHandle::submit`], but fails with
    /// [`ServeError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.send(Payload::One(update), true, false)
            .map(|rx| Ticket { rx: rx.unwrap() })
    }

    /// Fire-and-forget single update (no ticket allocated; rejections
    /// are only visible in the `serve_rejected_total` counter).
    pub fn submit_detached(&self, update: Update) -> Result<(), ServeError> {
        self.send(Payload::One(update), false, true).map(|_| ())
    }

    /// Enqueues a pre-formed batch as one command, blocking while the
    /// queue is full.
    pub fn submit_batch(&self, updates: Vec<Update>) -> Result<BatchTicket, ServeError> {
        self.send(Payload::Many(updates), true, true)
            .map(|rx| BatchTicket { rx: rx.unwrap() })
    }

    /// Point-in-time telemetry snapshot — same view as
    /// [`ServiceHandle::metrics`], available to feeder threads that only
    /// hold an ingest handle (the network front end's session threads).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The service's private registry, where a front end registers its
    /// own per-service series so they land in [`IngestHandle::metrics`].
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.metrics.registry()
    }

    /// Updates currently admitted into the queue and not yet applied —
    /// the signal admission control samples to shed clients *before*
    /// they hit the blocking backpressure gate.
    pub fn queue_depth(&self) -> u64 {
        self.metrics.queue_depth.get()
    }
}

type SendOutcome = Result<Option<mpsc::Receiver<Vec<Result<u64, EngineError>>>>, ServeError>;

/// The owning handle of a running service: submits updates, creates
/// readers, reads metrics, and shuts the service down.
///
/// Dropping the handle without calling [`ServiceHandle::shutdown`]
/// detaches the writer thread: it still flushes the queue and exits
/// once the last sender dies, but the final [`ServiceReport`] is
/// discarded.
pub struct ServiceHandle {
    ingest: IngestHandle,
    join: JoinHandle<ServiceReport>,
    log: Arc<SharedLog>,
}

impl ServiceHandle {
    /// Enqueues one update, blocking while the queue is full.
    pub fn submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.ingest.submit(update)
    }

    /// Non-blocking submit; [`ServeError::QueueFull`] when saturated.
    pub fn try_submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.ingest.try_submit(update)
    }

    /// Fire-and-forget single update.
    pub fn submit_detached(&self, update: Update) -> Result<(), ServeError> {
        self.ingest.submit_detached(update)
    }

    /// Enqueues a pre-formed batch as one command.
    pub fn submit_batch(&self, updates: Vec<Update>) -> Result<BatchTicket, ServeError> {
        self.ingest.submit_batch(updates)
    }

    /// A cloneable submit-only handle for feeder threads.
    pub fn ingest(&self) -> IngestHandle {
        self.ingest.clone()
    }

    /// A new reader. Starts at sequence 0 and catches up on first use —
    /// including the bootstrap delta, so it reconstructs the engine's
    /// current solution without ever materializing it from the engine.
    pub fn reader(&self) -> ReaderHandle {
        ReaderHandle::new(Arc::clone(&self.log), Arc::clone(&self.ingest.metrics))
    }

    /// Point-in-time telemetry snapshot: the process-global registry
    /// (stage timers, `core_*`, `durable_*`) merged with this service's
    /// own registry (`serve_*`, plus the `net_*` series of a network
    /// front end).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.ingest.metrics()
    }

    /// The service's broadcast log — the sequenced delta stream a
    /// network front end serializes for its subscribers.
    pub fn log(&self) -> Arc<SharedLog> {
        Arc::clone(&self.log)
    }

    /// Graceful shutdown: stops accepting new work from **this**
    /// handle, lets the writer drain and apply everything already
    /// queued (tickets still resolve), broadcasts the final deltas, and
    /// returns the final report.
    ///
    /// Blocks until every [`IngestHandle`] clone has been dropped too —
    /// the queue closes only when its last sender dies.
    pub fn shutdown(self) -> ServiceReport {
        let ServiceHandle {
            ingest,
            join,
            log: _log,
        } = self;
        drop(ingest);
        join.join().expect("serve writer thread panicked")
    }
}

/// Entry point: turns any engine into a concurrently served one.
///
/// ```
/// use dynamis_core::EngineBuilder;
/// use dynamis_graph::{DynamicGraph, Update};
/// use dynamis_serve::{MisService, ServeConfig};
///
/// let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let (service, mut reader) =
///     MisService::spawn(EngineBuilder::on(g).k(1), ServeConfig::default()).unwrap();
///
/// // Applied updates report their broadcast sequence number…
/// assert!(service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().is_ok());
/// // …invalid ones come back as the engine's typed rejection.
/// assert!(service.submit(Update::RemoveEdge(1, 2)).unwrap().wait().is_err());
///
/// let report = service.shutdown();
/// assert_eq!(reader.snapshot(), report.solution);
/// ```
pub struct MisService;

impl MisService {
    /// Spawns the writer thread over the engine described by `builder`
    /// (the paper engine matching the builder's `k`, via
    /// [`EngineBuilder::build`]). The engine is constructed *inside*
    /// the writer thread; construction errors are reported here.
    ///
    /// Returns the owning [`ServiceHandle`] plus a first
    /// [`ReaderHandle`].
    pub fn spawn(
        builder: EngineBuilder,
        cfg: ServeConfig,
    ) -> Result<(ServiceHandle, ReaderHandle), EngineError> {
        Self::spawn_with(move || builder.build(), cfg)
    }

    /// Like [`MisService::spawn`], but with an arbitrary engine
    /// factory — any [`DynamicMis`], including baselines or wrappers.
    pub fn spawn_with<F>(
        factory: F,
        cfg: ServeConfig,
    ) -> Result<(ServiceHandle, ReaderHandle), EngineError>
    where
        F: FnOnce() -> Result<Box<dyn DynamicMis>, EngineError> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let bp = Arc::new(Backpressure::new(cfg.queue_updates));
        let log = Arc::new(SharedLog::new(cfg.log_window));
        let metrics = Arc::new(ServiceMetrics::new(Arc::clone(&log)));
        let burst = cfg.burst.max(1);
        let (ready_tx, ready_rx) = mpsc::channel();
        let (wlog, wmetrics, wbp) = (Arc::clone(&log), Arc::clone(&metrics), Arc::clone(&bp));
        let join = thread::Builder::new()
            .name("dynamis-serve-writer".into())
            .spawn(move || {
                let mut engine = match factory() {
                    Ok(e) => e,
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                        return ServiceReport::default();
                    }
                };
                let _gate_guard = CloseGateOnExit(&wbp);
                // Expose the construction-time bootstrap *before*
                // signalling readiness, so a reader created right after
                // `spawn` returns already sees the initial solution: a
                // fresh service broadcasts it as the first delta, a
                // resumed one (first_seq > 0) installs it as the log's
                // base checkpoint so old subscribers re-seed cleanly.
                if cfg.first_seq > 0 {
                    let _ = engine.drain_delta();
                    wlog.install_checkpoint(cfg.first_seq, &engine.solution());
                } else {
                    wlog.publish(engine.drain_delta());
                }
                let _ = ready_tx.send(Ok(()));
                writer_loop(engine.as_mut(), rx, &wlog, &wmetrics, &wbp, burst);
                ServiceReport {
                    engine: engine.name().to_string(),
                    solution: engine.solution(),
                    head_seq: wlog.head(),
                    metrics: wmetrics.snapshot(),
                }
            })
            .expect("failed to spawn serve writer thread");
        match ready_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = join.join();
                return Err(e);
            }
            Err(_) => panic!("serve writer thread died during engine construction"),
        }
        let handle = ServiceHandle {
            ingest: IngestHandle { tx, bp, metrics },
            join,
            log,
        };
        let reader = handle.reader();
        Ok((handle, reader))
    }
}

/// The writer loop: blockingly receive one command, opportunistically
/// drain more up to the burst, feed the merged slice through
/// `try_apply_batch`, broadcast the net delta, resolve tickets. Exits
/// when every sender is gone — which is exactly the graceful-shutdown
/// flush, since `recv` keeps returning queued commands until the queue
/// is both closed *and* empty.
fn writer_loop(
    engine: &mut dyn DynamicMis,
    rx: mpsc::Receiver<Cmd>,
    log: &SharedLog,
    obs: &ServiceMetrics,
    bp: &Backpressure,
    burst: usize,
) {
    let mut round: Vec<Cmd> = Vec::new();
    let mut updates: Vec<Update> = Vec::new();
    let mut outcomes: Vec<Option<EngineError>> = Vec::new();
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    while let Ok(first) = rx.recv() {
        // Stage: batch drain — the idle blocking `recv` above is not
        // latency, but everything from here to the merged slice is.
        let t_drain = obs.batch_drain.begin();
        let mut total = first.payload.len();
        let mut weight = first.payload.weight();
        round.push(first);
        // Adaptive batching: whatever is queued right now rides along,
        // up to the burst cap. An idle queue means batch size 1 (lowest
        // latency); a saturated queue means full bursts (highest
        // amortization).
        while total < burst {
            match rx.try_recv() {
                Ok(cmd) => {
                    total += cmd.payload.len();
                    weight += cmd.payload.weight();
                    round.push(cmd);
                }
                Err(_) => break,
            }
        }
        // Free the whole round's queue budget in one step — blocked
        // feeders wake once per round and refill while the engine
        // works on this batch.
        bp.release(weight);
        obs.batch_drain.end(t_drain);
        apply_round(
            engine,
            &mut round,
            &mut updates,
            &mut outcomes,
            &mut ranges,
            log,
            obs,
        );
    }
}

/// Applies one merged round of commands and resolves their tickets.
/// Every buffer is caller-owned and reused round over round — the
/// writer hot path allocates nothing of its own here.
#[allow(clippy::too_many_arguments)]
fn apply_round(
    engine: &mut dyn DynamicMis,
    round: &mut Vec<Cmd>,
    updates: &mut Vec<Update>,
    outcomes: &mut Vec<Option<EngineError>>,
    ranges: &mut Vec<std::ops::Range<usize>>,
    log: &SharedLog,
    obs: &ServiceMetrics,
) {
    // Stage: ingest wait — charge each command's queue time against one
    // clock read (timestamps exist only while stage timing is enabled).
    if round.iter().any(|c| c.queued_at.is_some()) {
        let now = Instant::now();
        for cmd in round.iter() {
            obs.ingest_wait.end_at(cmd.queued_at, now);
        }
    }
    updates.clear();
    ranges.clear();
    for cmd in round.iter_mut() {
        let start = updates.len();
        match std::mem::replace(&mut cmd.payload, Payload::Many(Vec::new())) {
            Payload::One(u) => updates.push(u),
            Payload::Many(mut v) => updates.append(&mut v),
        }
        ranges.push(start..updates.len());
    }
    let n = updates.len();
    obs.queue_depth.sub(n as u64);

    // Feed the merged slice through the engine's real batch path.
    // `try_apply_batch` stops at the first rejection with the valid
    // prefix applied; resume right after the rejected update so every
    // update gets an individual verdict.
    let t_apply = obs.engine_apply.begin();
    outcomes.clear();
    outcomes.resize(n, None);
    let mut start = 0;
    while start < n {
        match engine.try_apply_batch(&updates[start..]) {
            Ok(_) => break,
            Err(EngineError::Batch { index, cause }) => {
                outcomes[start + index] = Some(*cause);
                start += index + 1;
            }
            Err(other) => {
                // Engines wrap batch failures in `EngineError::Batch`;
                // treat anything else as the first update failing.
                outcomes[start] = Some(other);
                start += 1;
            }
        }
    }
    obs.engine_apply.end(t_apply);

    // One broadcast per round: the net delta of everything the engine
    // accepted (the drainable feed nets rejected prefixes correctly).
    let t_bcast = obs.delta_broadcast.begin();
    let delta = engine.drain_delta();
    let seq = if delta.is_empty() {
        log.head()
    } else {
        log.publish(delta)
    };
    obs.delta_broadcast.end(t_bcast);

    let rejected = outcomes.iter().filter(|o| o.is_some()).count();
    obs.applied.add((n - rejected) as u64);
    obs.rejected.add(rejected as u64);
    obs.batch_size.record(n as u64);

    for (cmd, range) in round.drain(..).zip(ranges.drain(..)) {
        if let Some(reply) = cmd.reply {
            let results = range
                .map(|i| match outcomes[i].take() {
                    None => Ok(seq),
                    Some(e) => Err(e),
                })
                .collect();
            // A dropped ticket is fine — fire-and-forget after the fact.
            let _ = reply.send(results);
        }
    }
}
