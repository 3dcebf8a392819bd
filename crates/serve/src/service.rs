//! The service: an engine behind a bounded ingest queue with adaptive
//! batching, and handles for submitting work.
//!
//! One *round* at a time holds the engine: it takes a burst of commands,
//! feeds them through `try_apply_batch`, publishes the net delta and
//! resolves the tickets. Two kinds of thread run rounds:
//!
//! * **The submitting thread**, when a ticketed submission finds the
//!   service idle (no round running, nothing queued). It runs the round
//!   itself and returns with its verdict already known — no thread
//!   hand-off, no wake-up on the way back.
//! * **The `dynamis-serve-writer` thread**, for everything else:
//!   submissions that arrive while a round runs, and every
//!   fire-and-forget submission. Under load it drains full bursts.
//!
//! A `busy` flag under the queue lock makes the two mutually exclusive,
//! so sequence numbers keep one total order and are published in it. A
//! submitter runs at most its own round; any backlog that formed
//! meanwhile goes to the writer. The engine therefore crosses threads,
//! which is why [`DynamicMis`] requires `Send`.

use crate::error::ServeError;
use crate::log::SharedLog;
use crate::metrics::ServiceMetrics;
use crate::reader::ReaderHandle;
use dynamis_core::{DynamicMis, EngineBuilder, EngineError};
use dynamis_graph::Update;
use dynamis_obs::{MetricsRegistry, MetricsSnapshot};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Tuning knobs for [`MisService::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Ingest-queue capacity, in *updates* (a batch counts its length;
    /// an oversized batch is admitted alone into an empty queue). A
    /// full queue blocks `submit` and fails `try_submit` — the
    /// service's backpressure. The gate uses hysteresis: each round
    /// frees its whole drained burst at once, so a saturating feeder
    /// parks once per round, not once per update.
    pub queue_updates: usize,
    /// Maximum updates merged into one engine batch. A round drains
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

/// One command's verdicts: per update, its broadcast sequence number or
/// the engine's rejection.
type Verdicts = Vec<Result<u64, EngineError>>;

/// One ingest command: its updates plus where its verdicts go. Single
/// updates travel inline — a `submit` allocates no `Vec`.
struct Cmd {
    payload: Payload,
    reply: Reply,
    /// Submission time, captured only while stage timing is enabled —
    /// the round charges `submit → drain` to the ingest-wait stage.
    queued_at: Option<Instant>,
}

/// Where a command's verdicts go.
enum Reply {
    /// Fire-and-forget: rejections show only in `serve_rejected_total`.
    Detached,
    /// A queued ticket, resolved by the thread that runs its round.
    Ticket(mpsc::Sender<Verdicts>),
    /// The submitting thread runs this round itself and takes the
    /// verdicts back when the round returns.
    Caller,
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
/// path) while the queue is at capacity; each round releases its whole
/// drained burst at a time, so a saturated feeder wakes once per round
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
    /// Set when the engine panicked: blocked feeders must wake and fail
    /// instead of waiting forever for a release that will never come.
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

    /// Marks the service as dead and wakes every blocked feeder.
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.cv.notify_all();
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

/// How a submission's verdicts come back.
#[derive(Debug)]
enum Receipt {
    /// The submitting thread applied the round itself: the verdicts
    /// (or `Stopped`, if the engine panicked) are already here.
    Ready(Result<Verdicts, ServeError>),
    /// Queued: the thread that runs the round sends them.
    Pending(mpsc::Receiver<Verdicts>),
}

impl Receipt {
    fn recv(self) -> Result<Verdicts, ServeError> {
        match self {
            Receipt::Ready(verdicts) => verdicts,
            Receipt::Pending(rx) => rx.recv().map_err(|_| ServeError::Stopped),
        }
    }
}

/// Receipt for a single-update submission.
///
/// A submission that found the service idle was applied before
/// `submit` returned, so its ticket is already resolved; a queued one
/// resolves when the writer thread applies it. Dropping a ticket
/// without waiting is allowed (fire-and-forget after the fact); the
/// verdict simply goes nowhere.
#[derive(Debug)]
pub struct Ticket {
    receipt: Receipt,
}

impl Ticket {
    /// Blocks until the update was applied (the sequence number of the
    /// broadcast batch containing it) or rejected (the engine's typed
    /// error, as [`ServeError::Rejected`]).
    pub fn wait(self) -> Result<u64, ServeError> {
        let mut results = self.receipt.recv()?;
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
    receipt: Receipt,
}

impl BatchTicket {
    /// Blocks until the whole batch went through the engine. Unlike
    /// [`dynamis_core::DynamicMis::try_apply_batch`], a rejection does
    /// not stop the rest of the batch: each update gets its own
    /// `Result` (the sequence number of its broadcast, or the engine's
    /// rejection).
    pub fn wait(self) -> Result<Vec<Result<u64, EngineError>>, ServeError> {
        self.receipt.recv()
    }
}

/// What the ingest handles and the writer thread share.
struct Shared {
    queue: Mutex<Queue>,
    /// Wakes the writer: a backlog waits with no round running, the
    /// last ingest handle is gone, or the engine died.
    work: Condvar,
    /// The engine and the round buffers. Only the thread that set
    /// [`Queue::busy`] locks it, so the lock is never contended.
    combiner: Mutex<Combiner>,
    bp: Backpressure,
    log: Arc<SharedLog>,
    metrics: Arc<ServiceMetrics>,
    burst: usize,
}

#[derive(Default)]
struct Queue {
    cmds: VecDeque<Cmd>,
    /// A round is running, on the writer or on a submitting thread.
    busy: bool,
    /// Every ingest handle is gone: the writer drains what is left and
    /// exits.
    closed: bool,
    /// The engine panicked: nothing more is admitted or applied.
    dead: bool,
}

/// The engine plus the round buffers, which are reused round over
/// round.
struct Combiner {
    engine: Box<dyn DynamicMis>,
    round: Vec<Cmd>,
    updates: Vec<Update>,
    outcomes: Vec<Option<EngineError>>,
    ranges: Vec<Range<usize>>,
}

/// Why the queue lock cannot be poisoned: nothing under it panics.
const QUEUE_LOCK: &str = "no code panics while holding the queue lock";
/// Why the combiner lock cannot be poisoned: the round catches an
/// engine panic before the guard drops.
const COMBINER_LOCK: &str = "an engine panic is caught inside the round";

impl Shared {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(QUEUE_LOCK)
    }

    /// Runs one round; the caller has set [`Queue::busy`]. The round is
    /// `own` (an idle submitter's command) plus whatever is queued, up
    /// to the burst. It clears `busy` at the end, waking the writer if
    /// a backlog formed meanwhile, and returns `own`'s verdicts.
    ///
    /// A panicking engine is caught here, so it never unwinds into a
    /// submitting thread: the service dies, and every waiting ticket
    /// and parked feeder gets [`ServeError::Stopped`].
    fn run_round(&self, own: Option<Cmd>) -> Result<Option<Verdicts>, ServeError> {
        let mut combiner = self.combiner.lock().expect(COMBINER_LOCK);
        let c = &mut *combiner;
        // Stage: batch drain — from taking the engine to the merged
        // slice.
        let t_drain = self.metrics.batch_drain.begin();
        c.round.extend(own);
        let mut total: usize = c.round.iter().map(|cmd| cmd.payload.len()).sum();
        // Adaptive batching: whatever is queued right now rides along,
        // up to the burst cap. An idle queue means batch size 1 (lowest
        // latency); a saturated queue means full bursts (highest
        // amortization).
        let mut q = self.queue();
        while total < self.burst {
            match q.cmds.pop_front() {
                Some(cmd) => {
                    total += cmd.payload.len();
                    c.round.push(cmd);
                }
                None => break,
            }
        }
        drop(q);
        let weight = c.round.iter().map(|cmd| cmd.payload.weight()).sum();
        // Free the whole round's queue budget in one step — blocked
        // feeders wake once per round and refill while the engine
        // works on this batch.
        self.bp.release(weight);
        self.metrics.batch_drain.end(t_drain);

        let applied = panic::catch_unwind(AssertUnwindSafe(|| {
            apply_round(c, &self.log, &self.metrics)
        }));
        let mut q = self.queue();
        q.busy = false;
        match applied {
            Ok(own) => {
                let wake = !q.cmds.is_empty();
                drop(q);
                if wake {
                    self.work.notify_one();
                }
                Ok(own)
            }
            Err(_) => {
                q.dead = true;
                let backlog = std::mem::take(&mut q.cmds);
                drop(q);
                self.bp.close();
                self.work.notify_one();
                // Dropping the reply senders resolves every ticket of
                // this round and of the backlog with `Stopped`.
                c.round.clear();
                drop(backlog);
                Err(ServeError::Stopped)
            }
        }
    }
}

/// The last clone of an [`IngestHandle`] closes the queue when it goes:
/// the writer then flushes what is queued and exits.
struct Feed {
    shared: Arc<Shared>,
}

impl Drop for Feed {
    fn drop(&mut self) {
        // No panic in `drop`: the guard is sound even if poisoned.
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.closed = true;
        drop(q);
        self.shared.work.notify_one();
    }
}

/// A cloneable, submit-only handle for feeder threads. All clones feed
/// the same bounded queue; the service shuts down only after every
/// ingest handle (and the [`ServiceHandle`]) is dropped.
#[derive(Clone)]
pub struct IngestHandle {
    feed: Arc<Feed>,
}

impl IngestHandle {
    fn shared(&self) -> &Shared {
        &self.feed.shared
    }

    /// Admits a command through the backpressure gate, then either runs
    /// its round on this thread (a ticketed command on an idle service)
    /// or queues it for the writer.
    fn send(&self, payload: Payload, want_ticket: bool, blocking: bool) -> SendOutcome {
        let sh = self.shared();
        let n = payload.len() as u64;
        let weight = payload.weight();
        sh.bp.acquire(weight, blocking)?;
        sh.metrics.queue_depth.add(n);
        let queued_at = dynamis_obs::mark();
        let mut q = sh.queue();
        if q.dead {
            drop(q);
            sh.bp.release(weight);
            sh.metrics.queue_depth.sub(n);
            return Err(ServeError::Stopped);
        }
        sh.metrics.submitted.add(n);
        if want_ticket && !q.busy && q.cmds.is_empty() {
            // Idle: this thread takes the engine for one round.
            q.busy = true;
            drop(q);
            let cmd = Cmd {
                payload,
                reply: Reply::Caller,
                queued_at,
            };
            let verdicts = sh
                .run_round(Some(cmd))
                .map(|own| own.expect("a caller's command is in its own round"));
            return Ok(Some(Receipt::Ready(verdicts)));
        }
        let (reply, receipt) = if want_ticket {
            let (tx, rx) = mpsc::channel();
            (Reply::Ticket(tx), Some(Receipt::Pending(rx)))
        } else {
            (Reply::Detached, None)
        };
        // The writer parks only while the queue is empty and no round
        // runs; a running round hands any backlog over when it ends.
        let wake = !q.busy && q.cmds.is_empty();
        q.cmds.push_back(Cmd {
            payload,
            reply,
            queued_at,
        });
        drop(q);
        if wake {
            sh.work.notify_one();
        }
        Ok(receipt)
    }

    /// Submits one update, blocking while the queue is full. On an idle
    /// service it is applied on this thread before `submit` returns;
    /// otherwise it queues for the writer. The ticket reports the typed
    /// outcome either way.
    pub fn submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.send(Payload::One(update), true, true)
            .map(|receipt| Ticket {
                receipt: receipt.unwrap(),
            })
    }

    /// Like [`IngestHandle::submit`], but fails with
    /// [`ServeError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.send(Payload::One(update), true, false)
            .map(|receipt| Ticket {
                receipt: receipt.unwrap(),
            })
    }

    /// Fire-and-forget single update (no ticket allocated; rejections
    /// are only visible in the `serve_rejected_total` counter). Always
    /// queued for the writer, so a fast feeder's updates merge into
    /// bursts.
    pub fn submit_detached(&self, update: Update) -> Result<(), ServeError> {
        self.send(Payload::One(update), false, true).map(|_| ())
    }

    /// Submits a pre-formed batch as one command, blocking while the
    /// queue is full. Like [`IngestHandle::submit`], it is applied on
    /// this thread when the service is idle.
    pub fn submit_batch(&self, updates: Vec<Update>) -> Result<BatchTicket, ServeError> {
        self.send(Payload::Many(updates), true, true)
            .map(|receipt| BatchTicket {
                receipt: receipt.unwrap(),
            })
    }

    /// Point-in-time telemetry snapshot — same view as
    /// [`ServiceHandle::metrics`], available to feeder threads that only
    /// hold an ingest handle (the network front end's session threads).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared().metrics.snapshot()
    }

    /// The service's private registry, where a front end registers its
    /// own per-service series so they land in [`IngestHandle::metrics`].
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.shared().metrics.registry()
    }

    /// Updates currently admitted into the queue and not yet applied —
    /// the signal admission control samples to shed clients *before*
    /// they hit the blocking backpressure gate.
    pub fn queue_depth(&self) -> u64 {
        self.shared().metrics.queue_depth.get()
    }
}

type SendOutcome = Result<Option<Receipt>, ServeError>;

/// The owning handle of a running service: submits updates, creates
/// readers, reads metrics, and shuts the service down.
///
/// Dropping the handle without calling [`ServiceHandle::shutdown`]
/// detaches the writer thread: it still flushes the queue and exits
/// once the last ingest handle is gone, but the final [`ServiceReport`]
/// is discarded.
pub struct ServiceHandle {
    ingest: IngestHandle,
    join: JoinHandle<ServiceReport>,
}

impl ServiceHandle {
    /// Submits one update, blocking while the queue is full; see
    /// [`IngestHandle::submit`].
    pub fn submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.ingest.submit(update)
    }

    /// Non-blocking submit; [`ServeError::QueueFull`] when saturated.
    pub fn try_submit(&self, update: Update) -> Result<Ticket, ServeError> {
        self.ingest.try_submit(update)
    }

    /// Fire-and-forget single update, always queued for the writer.
    pub fn submit_detached(&self, update: Update) -> Result<(), ServeError> {
        self.ingest.submit_detached(update)
    }

    /// Submits a pre-formed batch as one command.
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
        let shared = self.ingest.shared();
        ReaderHandle::new(Arc::clone(&shared.log), Arc::clone(&shared.metrics))
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
        Arc::clone(&self.ingest.shared().log)
    }

    /// Graceful shutdown: stops accepting new work from **this**
    /// handle, lets the writer drain and apply everything already
    /// queued (tickets still resolve), broadcasts the final deltas, and
    /// returns the final report.
    ///
    /// Blocks until every [`IngestHandle`] clone has been dropped too —
    /// the queue closes only when its last handle goes. Panics if the
    /// engine panicked while the service ran.
    pub fn shutdown(self) -> ServiceReport {
        let ServiceHandle { ingest, join } = self;
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
    /// Spawns the service over the engine described by `builder` (the
    /// paper engine matching the builder's `k`, via
    /// [`EngineBuilder::build`]). The engine is constructed on the
    /// `dynamis-serve-writer` thread; construction errors are reported
    /// here.
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
    /// The factory runs on the `dynamis-serve-writer` thread. After
    /// that the engine is applied on whichever thread runs a round:
    /// the writer, or a submitting thread that found the service idle.
    pub fn spawn_with<F>(
        factory: F,
        cfg: ServeConfig,
    ) -> Result<(ServiceHandle, ReaderHandle), EngineError>
    where
        F: FnOnce() -> Result<Box<dyn DynamicMis>, EngineError> + Send + 'static,
    {
        let (ready_tx, ready_rx) = mpsc::channel();
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
                let log = Arc::new(SharedLog::new(cfg.log_window));
                // Expose the construction-time bootstrap *before*
                // signalling readiness, so a reader created right after
                // `spawn` returns already sees the initial solution: a
                // fresh service broadcasts it as the first delta, a
                // resumed one (first_seq > 0) installs it as the log's
                // base checkpoint so old subscribers re-seed cleanly.
                if cfg.first_seq > 0 {
                    let _ = engine.drain_delta();
                    log.install_checkpoint(cfg.first_seq, &engine.solution());
                } else {
                    log.publish(engine.drain_delta());
                }
                let shared = Arc::new(Shared {
                    queue: Mutex::default(),
                    work: Condvar::new(),
                    combiner: Mutex::new(Combiner {
                        engine,
                        round: Vec::new(),
                        updates: Vec::new(),
                        outcomes: Vec::new(),
                        ranges: Vec::new(),
                    }),
                    bp: Backpressure::new(cfg.queue_updates),
                    metrics: Arc::new(ServiceMetrics::new(Arc::clone(&log))),
                    log,
                    burst: cfg.burst.max(1),
                });
                let _ = ready_tx.send(Ok(Arc::clone(&shared)));
                writer_loop(&shared);
                let c = shared.combiner.lock().expect(COMBINER_LOCK);
                ServiceReport {
                    engine: c.engine.name().to_string(),
                    solution: c.engine.solution(),
                    head_seq: shared.log.head(),
                    metrics: shared.metrics.snapshot(),
                }
            })
            .expect("failed to spawn serve writer thread");
        let shared = match ready_rx.recv() {
            Ok(Ok(shared)) => shared,
            Ok(Err(e)) => {
                let _ = join.join();
                return Err(e);
            }
            Err(_) => panic!("serve writer thread died during engine construction"),
        };
        let handle = ServiceHandle {
            ingest: IngestHandle {
                feed: Arc::new(Feed { shared }),
            },
            join,
        };
        let reader = handle.reader();
        Ok((handle, reader))
    }
}

/// The writer loop: parks until a backlog waits with no round running,
/// then runs a burst-sized round of it. Exits once every ingest handle
/// is gone and the queue is empty — which is exactly the
/// graceful-shutdown flush. Panics if the engine died, so that
/// [`ServiceHandle::shutdown`] reports it.
fn writer_loop(sh: &Shared) {
    let mut q = sh.queue();
    loop {
        if q.dead {
            drop(q);
            panic!("the served engine panicked mid-apply");
        }
        if !q.busy && !q.cmds.is_empty() {
            q.busy = true;
            drop(q);
            // A panic is recorded in `dead`, read on the next pass.
            let _ = sh.run_round(None);
            q = sh.queue();
        } else if q.closed {
            // No handle is left, so no submitter can be running a round.
            return;
        } else {
            q = sh.work.wait(q).expect(QUEUE_LOCK);
        }
    }
}

/// Applies one merged round of commands and resolves their tickets;
/// returns the verdicts of the submitting thread's own command, if the
/// round has one. Every buffer is reused round over round.
fn apply_round(c: &mut Combiner, log: &SharedLog, obs: &ServiceMetrics) -> Option<Verdicts> {
    let Combiner {
        engine,
        round,
        updates,
        outcomes,
        ranges,
    } = c;
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

    let mut own = None;
    for (cmd, range) in round.drain(..).zip(ranges.drain(..)) {
        let verdicts = || -> Verdicts {
            range
                .map(|i| match outcomes[i].take() {
                    None => Ok(seq),
                    Some(e) => Err(e),
                })
                .collect()
        };
        match cmd.reply {
            Reply::Detached => {}
            // A dropped ticket is fine — fire-and-forget after the fact.
            Reply::Ticket(tx) => {
                let _ = tx.send(verdicts());
            }
            Reply::Caller => own = Some(verdicts()),
        }
    }
    own
}
