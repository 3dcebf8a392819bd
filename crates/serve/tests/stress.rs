//! Concurrency contract of the serving layer.
//!
//! * **Convergence**: with a writer thread and several reader threads
//!   hammering queries through thousands of mixed updates, every
//!   reader's mirror equals the engine's `solution()` at quiesce —
//!   readers only ever consumed broadcast deltas (there is no engine
//!   lock to block on; the engine lives privately inside the writer).
//! * **Flush on shutdown**: everything submitted before `shutdown()`
//!   is applied and broadcast.
//! * **Backpressure**: a full bounded queue fails `try_submit`
//!   deterministically (pinned with a gated engine, not with timing).
//! * **Typed rejections**: invalid updates inside a burst reach their
//!   tickets as `EngineError`s while the rest of the burst applies.

use dynamis_core::{DynamicMis, EngineBuilder, EngineError, SolutionDelta};
use dynamis_gen::adversarial::{AdversarialConfig, AdversarialStream};
use dynamis_gen::uniform::gnm;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use dynamis_obs::MetricsSnapshot;
use dynamis_serve::{MisService, ServeConfig, ServeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

    // Two dedicated reader threads querying as fast as they can.
    let stop = Arc::new(AtomicBool::new(false));
    let reader_threads: Vec<_> = (0..2)
        .map(|_| {
            let mut r = service.reader();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut queries = 0u64;
                let mut members = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if r.contains((queries % 512) as u32) {
                        members += 1;
                    }
                    let _ = r.len();
                    queries += 2;
                }
                (r, queries, members)
            })
        })
        .collect();

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
}

impl Gate {
    /// Writer side: announce entry, then wait for the gate to open.
    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.entered += 1;
        self.cv.notify_all();
        while !st.open {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Test side: wait until the writer is provably inside `pass`.
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
}

impl DynamicMis for GatedEngine {
    fn name(&self) -> &'static str {
        "GatedEngine"
    }
    fn graph(&self) -> &DynamicGraph {
        self.inner.graph()
    }
    fn try_apply(&mut self, u: &Update) -> Result<SolutionDelta, EngineError> {
        self.gate.pass();
        self.inner.try_apply(u)
    }
    fn try_apply_batch(&mut self, updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.gate.pass();
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

    // First submission: the writer dequeues it and blocks inside the
    // engine (provably — we wait for the gate entry).
    let t1 = service.submit(Update::InsertEdge(0, 2)).unwrap();
    gate.wait_entered(1);
    // Second submission parks in the queue's single slot.
    let t2 = service.submit(Update::InsertEdge(1, 3)).unwrap();
    // The queue is now full: the non-blocking path must say so.
    match service.try_submit(Update::InsertEdge(4, 5)) {
        Err(ServeError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // The writer is blocked: the queued update shows in a snapshot taken
    // now, not only after the writer's next round.
    assert!(gauge(&service.metrics(), "serve_queue_depth") >= 1);

    // Open the gate: everything flows, tickets resolve in order.
    gate.open();
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
        self.gate.pass();
        panic!("engine bug");
    }
    fn try_apply_batch(&mut self, _updates: &[Update]) -> Result<SolutionDelta, EngineError> {
        self.gate.pass();
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

    // First update: dequeued by the writer, which blocks at the gate.
    let t1 = service.submit(Update::InsertEdge(0, 2)).unwrap();
    gate.wait_entered(1);
    // Second update: occupies the queue's single slot.
    let t2 = service.submit(Update::InsertEdge(1, 3)).unwrap();
    // Third feeder: parks in the backpressure gate (or arrives after the
    // crash — either way it must FAIL, not hang forever).
    let ingest = service.ingest();
    let parked = thread::spawn(move || ingest.submit(Update::InsertEdge(4, 5)));
    // Let the engine "crash": the writer thread unwinds; the gate guard
    // must close the backpressure so the parked feeder wakes with
    // `Stopped`, and outstanding tickets resolve to `Stopped` too.
    gate.open();
    match parked.join().unwrap() {
        Err(ServeError::Stopped) => {}
        other => panic!("parked feeder should observe Stopped, got {other:?}"),
    }
    assert!(matches!(t1.wait(), Err(ServeError::Stopped)));
    assert!(matches!(t2.wait(), Err(ServeError::Stopped)));
    // `shutdown` would propagate the writer panic; dropping the handle
    // detaches instead — the dead service rejects any further submit.
    drop(service);
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
