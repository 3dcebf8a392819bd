//! Concurrency contract of the serving layer.
//!
//! * **Convergence**: with a feeder and several reader threads
//!   hammering queries through thousands of mixed updates, every
//!   reader's mirror equals the engine's `solution()` at quiesce —
//!   readers only ever consumed broadcast deltas (there is no engine
//!   lock to block on; the engine lives privately inside the service).
//! * **Flush on shutdown**: everything submitted before `shutdown()`
//!   is applied and broadcast.
//! * **Backpressure**: a full bounded queue fails `try_submit`
//!   deterministically (pinned with a gated engine, not with timing).
//! * **Typed rejections**: invalid updates inside a burst reach their
//!   tickets as `EngineError`s while the rest of the burst applies.
//! * **Who applies what**: a ticketed submission on an idle service is
//!   applied on the submitting thread; what queues behind it is applied
//!   by the writer thread in merged bursts; an engine panic in either
//!   comes back as `Stopped` (pinned with gates, not with timing).

use dynamis_core::{DynamicMis, EngineBuilder, EngineError, SolutionDelta};
use dynamis_gen::adversarial::{AdversarialConfig, AdversarialStream};
use dynamis_gen::uniform::gnm;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use dynamis_obs::MetricsSnapshot;
use dynamis_serve::{MisService, ServeConfig, ServeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;

/// Scale knob: thousands of updates, kept debug-buildable; CI runs
/// this same test under `--release` where it is ~20× faster.
const STRESS_UPDATES: usize = 4000;

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name)
        .unwrap_or_else(|| panic!("no counter {name}"))
}

fn gauge(m: &MetricsSnapshot, name: &str) -> u64 {
    m.gauge(name).unwrap_or_else(|| panic!("no gauge {name}"))
}

fn applied(m: &MetricsSnapshot) -> u64 {
    counter(m, "serve_applied_total")
}

#[test]
fn stress_multithreaded_readers_converge_at_quiesce() {
    let g = gnm(150, 400, 42);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 7).take_updates(STRESS_UPDATES);
    let (service, mut reader0) = MisService::spawn(
        EngineBuilder::on(g).k(2),
        ServeConfig {
            queue_updates: 64,
            burst: 128,
            log_window: 64, // small window: force checkpoint resyncs too
            first_seq: 0,
        },
    )
    .unwrap();

    // Two dedicated reader threads querying as fast as they can. Each
    // answers its first queries before the feeder starts, so the
    // readers provably run beside the writes rather than depending on
    // being scheduled before the feed ends.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(3));
    let reader_threads: Vec<_> = (0..2)
        .map(|_| {
            let mut r = service.reader();
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            thread::spawn(move || {
                let mut queries = 0u64;
                let mut members = 0u64;
                loop {
                    if r.contains((queries % 512) as u32) {
                        members += 1;
                    }
                    let _ = r.len();
                    queries += 2;
                    if queries == 2 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (r, queries, members)
            })
        })
        .collect();
    started.wait();

    // Feeder: mixed valid updates, every 50th doubled with an invalid
    // one whose ticket must carry the typed rejection.
    let mut tickets = Vec::new();
    let mut invalid = 0u64;
    for (i, u) in ups.iter().enumerate() {
        if i % 50 == 0 {
            let t = service.submit(Update::RemoveVertex(9_999)).unwrap();
            tickets.push((t, true));
            invalid += 1;
        }
        if i % 16 == 0 {
            let t = service.submit(u.clone()).unwrap();
            tickets.push((t, false));
        } else {
            service.submit_detached(u.clone()).unwrap();
        }
    }
    for (t, expect_reject) in tickets {
        match t.wait() {
            Ok(seq) => assert!(!expect_reject, "invalid update got applied at seq {seq}"),
            Err(ServeError::Rejected(e)) => {
                assert!(expect_reject, "valid update rejected: {e}")
            }
            Err(other) => panic!("unexpected ticket failure: {other}"),
        }
    }

    let report = service.shutdown();
    stop.store(true, Ordering::Relaxed);

    assert_eq!(applied(&report.metrics), STRESS_UPDATES as u64);
    assert_eq!(counter(&report.metrics, "serve_rejected_total"), invalid);
    assert_eq!(
        gauge(&report.metrics, "serve_queue_depth"),
        0,
        "shutdown flushed the queue"
    );
    assert!(
        counter(&report.metrics, "serve_desyncs_total") == 0,
        "broadcast must never desync"
    );

    // Every reader — the spawn-time one and the per-thread forks —
    // lands exactly on the engine's final solution.
    assert_eq!(reader0.snapshot(), report.solution);
    assert_eq!(reader0.seq(), report.head_seq);
    for h in reader_threads {
        let (mut r, queries, _members) = h.join().unwrap();
        assert!(queries > 0);
        assert_eq!(r.snapshot(), report.solution);
        assert!(r.last_desync().is_none());
    }
}

#[test]
fn shutdown_flushes_everything_already_queued() {
    let g = gnm(60, 150, 3);
    let ups = UpdateStream::new(&g, StreamConfig::edges_only(), 5).take_updates(1500);
    let (service, mut reader) = MisService::spawn(
        EngineBuilder::on(g),
        ServeConfig {
            queue_updates: 4096,
            burst: 64,
            log_window: 128,
            first_seq: 0,
        },
    )
    .unwrap();
    // Everything fire-and-forget; nothing waited on…
    for u in &ups {
        service.submit_detached(u.clone()).unwrap();
    }
    // …yet shutdown must apply the whole queue before returning.
    let report = service.shutdown();
    assert_eq!(counter(&report.metrics, "serve_submitted_total"), 1500);
    assert_eq!(applied(&report.metrics), 1500);
    assert_eq!(counter(&report.metrics, "serve_rejected_total"), 0);
    assert_eq!(gauge(&report.metrics, "serve_queue_depth"), 0);
    assert_eq!(reader.snapshot(), report.solution);
    // The queue was saturated relative to the writer: adaptive batching
    // must have merged bursts (strictly fewer batches than updates).
    let batches = report.metrics.histogram("serve_batch_size").unwrap().count;
    assert!(batches < 1500, "expected merged batches, got {batches}");
}

/// An engine wrapper whose batch application blocks on a gate — makes
/// queue-full states deterministic instead of timing-dependent.
struct GatedEngine {
    inner: Box<dyn DynamicMis>,
    gate: Arc<Gate>,
}

#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    open: bool,
    entered: u64,
    /// Per entry: the applying thread's name and the batch length.
    passes: Vec<(String, usize)>,
}

impl Gate {
    /// Engine side: record who applies how many updates, announce
    /// entry, then wait for the gate to open.
    fn pass(&self, updates: usize) {
        let mut st = self.state.lock().unwrap();
        let name = thread::current().name().unwrap_or_default().to_string();
        st.passes.push((name, updates));
        st.entered += 1;
        self.cv.notify_all();
        while !st.open {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Test side: wait until a round is provably inside `pass`.
    fn wait_entered(&self, n: u64) {
        let mut st = self.state.lock().unwrap();
        while st.entered < n {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().unwrap();
        st.open = true;
        self.cv.notify_all();
    }

    fn passes(&self) -> Vec<(String, usize)> {
        self.state.lock().unwrap().passes.clone()
    }
}

impl DynamicMis for GatedEngine {
    fn name(&self) -> &'static str {
        "GatedEngine"
    }
    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }
    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        self.gate.pass(1);
        self.inner.try_apply(u)
    }
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.gate.pass(updates.len());
        self.inner.try_apply_batch(updates)
    }
    fn drain_delta(&mut self) -> SolutionDelta {
        self.inner.drain_delta()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn solution(&self) -> Vec<u32> {
        self.inner.solution()
    }
    fn contains(&self, v: u32) -> bool {
        self.inner.contains(v)
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
}

#[test]
fn bounded_queue_applies_backpressure() {
    let gate = Arc::new(Gate::default());
    let factory_gate = Arc::clone(&gate);
    let (service, _reader) = MisService::spawn_with(
        move || {
            let g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]);
            Ok(Box::new(GatedEngine {
                inner: EngineBuilder::on(g).build()?,
                gate: factory_gate,
            }))
        },
        ServeConfig {
            queue_updates: 1,
            burst: 1,
            log_window: 16,
            first_seq: 0,
        },
    )
    .unwrap();

    // First submission: the service is idle, so it is applied on the
    // submitting thread, which blocks inside the engine (provably — we
    // wait for the gate entry). Submit it from a thread of its own so
    // this one stays free.
    let ingest = service.ingest();
    let first = thread::spawn(move || ingest.submit(Update::InsertEdge(0, 2)).unwrap());
    gate.wait_entered(1);
    // Second submission parks in the queue's single slot.
    let t2 = service.submit(Update::InsertEdge(1, 3)).unwrap();
    // The queue is now full: the non-blocking path must say so.
    match service.try_submit(Update::InsertEdge(4, 5)) {
        Err(ServeError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // The round is blocked: the queued update shows in a snapshot taken
    // now, not only after the next round.
    assert!(gauge(&service.metrics(), "serve_queue_depth") >= 1);

    // Open the gate: everything flows, tickets resolve in order.
    gate.open();
    let t1 = first.join().unwrap();
    t1.wait().unwrap();
    t2.wait().unwrap();
    // The rejected-by-backpressure update was never queued; submitting
    // it again (blocking) succeeds now.
    service
        .submit(Update::InsertEdge(4, 5))
        .unwrap()
        .wait()
        .unwrap();
    let report = service.shutdown();
    assert_eq!(applied(&report.metrics), 3);
    assert_eq!(report.engine, "GatedEngine");
}

/// An engine that waits at the gate, then panics — models a buggy
/// custom `DynamicMis` dying mid-apply.
struct PanickingEngine {
    inner: Box<dyn DynamicMis>,
    gate: Arc<Gate>,
}

impl DynamicMis for PanickingEngine {
    fn name(&self) -> &'static str {
        "PanickingEngine"
    }
    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }
    fn try_apply(&mut self, _u: &Update) -> Result<SolutionDelta, EngineError> {
        self.gate.pass(1);
        panic!("engine bug");
    }
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.gate.pass(updates.len());
        panic!("engine bug");
    }
    fn drain_delta(&mut self) -> SolutionDelta {
        self.inner.drain_delta()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn solution(&self) -> Vec<u32> {
        self.inner.solution()
    }
    fn contains(&self, v: u32) -> bool {
        self.inner.contains(v)
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
}

#[test]
fn writer_panic_unblocks_parked_feeders() {
    let gate = Arc::new(Gate::default());
    let factory_gate = Arc::clone(&gate);
    let (service, _reader) = MisService::spawn_with(
        move || {
            let g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]);
            Ok(Box::new(PanickingEngine {
                inner: EngineBuilder::on(g).build()?,
                gate: factory_gate,
            }))
        },
        ServeConfig {
            queue_updates: 1,
            burst: 1,
            log_window: 16,
            first_seq: 0,
        },
    )
    .unwrap();

    // First update: applied on its idle submitter's thread, which
    // blocks at the gate.
    let ingest = service.ingest();
    let first = thread::spawn(move || ingest.submit(Update::InsertEdge(0, 2)).unwrap());
    gate.wait_entered(1);
    // Second update: occupies the queue's single slot.
    let t2 = service.submit(Update::InsertEdge(1, 3)).unwrap();
    // Third feeder: parks in the backpressure gate (or arrives after the
    // crash — either way it must FAIL, not hang forever).
    let ingest = service.ingest();
    let parked = thread::spawn(move || ingest.submit(Update::InsertEdge(4, 5)));
    // Let the engine "crash" inside the first submitter's round: the
    // round catches the unwind and must close the backpressure so the
    // parked feeder wakes with `Stopped`, and outstanding tickets
    // resolve to `Stopped` too.
    gate.open();
    match parked.join().unwrap() {
        Err(ServeError::Stopped) => {}
        other => panic!("parked feeder should observe Stopped, got {other:?}"),
    }
    let t1 = first.join().unwrap();
    assert!(matches!(t1.wait(), Err(ServeError::Stopped)));
    assert!(matches!(t2.wait(), Err(ServeError::Stopped)));
    // `shutdown` would propagate the engine panic; dropping the handle
    // detaches instead — the dead service rejects any further submit.
    drop(service);
}

/// Spawns a service over a gated engine on a six-vertex graph with
/// edges (0, 1) and (2, 3).
fn spawn_gated(
    gate: &Arc<Gate>,
    panics: bool,
    queue_updates: usize,
) -> (dynamis_serve::ServiceHandle, dynamis_serve::ReaderHandle) {
    let gate = Arc::clone(gate);
    MisService::spawn_with(
        move || {
            let g = DynamicGraph::from_edges(6, &[(0, 1), (2, 3)]);
            let inner = EngineBuilder::on(g).build()?;
            Ok(if panics {
                Box::new(PanickingEngine { inner, gate }) as Box<dyn DynamicMis>
            } else {
                Box::new(GatedEngine { inner, gate })
            })
        },
        ServeConfig {
            queue_updates,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn idle_submit_applies_on_the_callers_thread_and_the_backlog_on_the_writer() {
    let gate = Arc::new(Gate::default());
    let (service, mut reader) = spawn_gated(&gate, false, 1024);

    // The service is idle: the submitting thread runs the round itself
    // and holds the engine at the gate.
    let ingest = service.ingest();
    let caller = thread::Builder::new()
        .name("submitter".into())
        .spawn(move || ingest.submit(Update::InsertEdge(0, 2)).unwrap().wait())
        .unwrap();
    gate.wait_entered(1);
    // A round is running, so everything now queues — detached and
    // ticketed alike.
    for u in [
        Update::InsertEdge(1, 3),
        Update::InsertEdge(4, 5),
        Update::RemoveEdge(0, 1),
    ] {
        service.submit_detached(u).unwrap();
    }
    let queued = service.submit(Update::RemoveEdge(2, 3)).unwrap();
    assert_eq!(gauge(&service.metrics(), "serve_queue_depth"), 4);

    gate.open();
    let own_seq = caller.join().unwrap().unwrap();
    let queued_seq = queued.wait().unwrap();
    assert!(
        own_seq < queued_seq,
        "the backlog publishes after its round"
    );
    let report = service.shutdown();
    assert_eq!(
        gate.passes(),
        vec![
            ("submitter".to_string(), 1),
            ("dynamis-serve-writer".to_string(), 4),
        ],
        "one inline round on the caller, then one merged round on the writer"
    );
    assert_eq!(applied(&report.metrics), 5);
    assert_eq!(reader.snapshot(), report.solution);
}

#[test]
fn inline_round_panic_returns_stopped_to_the_caller() {
    let gate = Arc::new(Gate::default());
    let (service, _reader) = spawn_gated(&gate, true, 1);

    // Once this thread's round is inside the engine, a helper fills the
    // queue's single slot, parks a feeder behind it, and lets the
    // engine panic.
    let ingest = service.ingest();
    let helper_gate = Arc::clone(&gate);
    let helper = thread::spawn(move || {
        helper_gate.wait_entered(1);
        let queued = ingest.submit(Update::InsertEdge(1, 3)).unwrap();
        let feeder = ingest.clone();
        let parked = thread::spawn(move || feeder.submit(Update::InsertEdge(4, 5)));
        helper_gate.open();
        (queued.wait(), parked.join().unwrap())
    });

    // Idle service: the round runs right here, and the engine panics in
    // it. The panic must come back as `Stopped`, not unwind through
    // `submit`.
    let ticket = service.submit(Update::InsertEdge(0, 2)).unwrap();
    assert!(matches!(ticket.wait(), Err(ServeError::Stopped)));
    let me = thread::current().name().unwrap_or_default().to_string();
    assert_eq!(gate.passes(), vec![(me, 1)]);

    let (queued, parked) = helper.join().unwrap();
    assert!(matches!(queued, Err(ServeError::Stopped)));
    assert!(matches!(parked, Err(ServeError::Stopped)));

    // The service is dead: every submission path refuses.
    assert!(matches!(
        service.submit(Update::InsertEdge(0, 3)),
        Err(ServeError::Stopped)
    ));
    assert!(matches!(
        service.try_submit(Update::InsertEdge(0, 3)),
        Err(ServeError::Stopped)
    ));
    assert!(matches!(
        service.submit_detached(Update::InsertEdge(0, 3)),
        Err(ServeError::Stopped)
    ));
    assert!(matches!(
        service.submit_batch(vec![Update::InsertEdge(0, 3)]),
        Err(ServeError::Stopped)
    ));
    // `shutdown` reports the engine's panic.
    assert!(thread::spawn(move || service.shutdown()).join().is_err());
}

#[test]
fn batch_tickets_carry_per_update_verdicts() {
    let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let (service, mut reader) =
        MisService::spawn(EngineBuilder::on(g).k(1), ServeConfig::default()).unwrap();
    let outcome = service
        .submit_batch(vec![
            Update::RemoveEdge(1, 2), // valid
            Update::InsertEdge(0, 1), // duplicate → rejected
            Update::InsertEdge(0, 2), // valid — still applied after the rejection
            Update::RemoveVertex(99), // dead → rejected
            Update::InsertEdge(2, 4), // valid
        ])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.len(), 5);
    assert!(outcome[0].is_ok());
    assert_eq!(
        outcome[1].as_ref().unwrap_err(),
        &EngineError::DuplicateEdge(0, 1)
    );
    assert!(outcome[2].is_ok());
    assert!(matches!(
        outcome[3].as_ref().unwrap_err(),
        EngineError::Graph(_)
    ));
    assert!(outcome[4].is_ok());
    let report = service.shutdown();
    assert_eq!(applied(&report.metrics), 3);
    assert_eq!(counter(&report.metrics, "serve_rejected_total"), 2);
    assert_eq!(reader.snapshot(), report.solution);
}

#[test]
fn submitting_after_shutdown_reports_stopped() {
    let g = DynamicGraph::from_edges(3, &[(0, 1)]);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g), ServeConfig::default()).unwrap();
    let ingest = service.ingest();
    // Hold an extra ingest handle: shutdown still waits for the queue,
    // and the clone keeps working until dropped.
    ingest.submit(Update::InsertEdge(0, 2)).unwrap();
    let done = thread::spawn(move || service.shutdown());
    ingest
        .submit(Update::RemoveEdge(0, 2))
        .unwrap()
        .wait()
        .unwrap();
    drop(ingest);
    let report = done.join().unwrap();
    assert_eq!(applied(&report.metrics), 2);
}

#[test]
fn serves_the_adversarial_stream() {
    // The deletion-heavy worst case from `dynamis_gen::adversarial`,
    // end to end through the service.
    let g = gnm(120, 360, 17);
    let ups = AdversarialStream::new(
        &g,
        AdversarialConfig {
            burst: 48,
            targets: 12,
            replace: true,
        },
        23,
    )
    .take_updates(2000);
    let (service, mut reader) = MisService::spawn(
        EngineBuilder::on(g).k(2),
        ServeConfig {
            queue_updates: 128,
            burst: 64,
            log_window: 64,
            first_seq: 0,
        },
    )
    .unwrap();
    for u in ups {
        service.submit_detached(u).unwrap();
    }
    let report = service.shutdown();
    assert_eq!(applied(&report.metrics), 2000);
    assert_eq!(
        counter(&report.metrics, "serve_rejected_total"),
        0,
        "adversarial stream is valid"
    );
    assert_eq!(reader.snapshot(), report.solution);
}

/// Two services in one process keep separate counts: each snapshot
/// reports only its own service's `serve_*` series.
#[test]
fn services_in_one_process_report_only_their_own_counts() {
    let spawn = || {
        let g = DynamicGraph::from_edges(8, &[(0, 1), (2, 3)]);
        MisService::spawn(EngineBuilder::on(g), ServeConfig::default()).unwrap()
    };
    let (a, _ra) = spawn();
    let (b, _rb) = spawn();
    for u in [Update::InsertEdge(4, 5), Update::InsertEdge(6, 7)] {
        a.submit(u).unwrap().wait().unwrap();
    }
    b.submit(Update::InsertEdge(0, 2)).unwrap().wait().unwrap();
    assert_eq!(applied(&a.metrics()), 2);
    assert_eq!(applied(&b.metrics()), 1);
    assert_eq!(counter(&b.metrics(), "serve_submitted_total"), 1);
    assert_eq!(applied(&a.shutdown().metrics), 2);
    assert_eq!(applied(&b.shutdown().metrics), 1);
}
