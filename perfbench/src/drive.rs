//! The timed phase: one closed-loop writer and one side connection (a
//! subscriber feeding a `RemoteMirror`, or a reader sending `Contains`)
//! from this process, two threads, two connections.

use crate::host::{self, ThreadTimes};
use crate::{Side, Workload};
use dynamis_graph::Update;
use dynamis_net::{NetClient, NetError, RemoteMirror, SubEvent};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long the subscriber may trail the writer's last verdict before
/// its missing deltas count as lost.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(30);
/// Subscriber read timeout: how often it re-checks its stop condition
/// while no event arrives.
const SUB_POLL: Duration = Duration::from_millis(5);

/// One writer request: send and verdict times (ns since the phase
/// origin), the verdict's sequence number and the updates it carried.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub send_ns: u64,
    pub ack_ns: u64,
    pub seq: u64,
    pub updates: u32,
    /// Whether stage timing was on while it ran (traced runs only).
    pub traced: bool,
}

/// One subscription event the mirror applied.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub checkpoint: bool,
}

/// What the subscriber saw.
pub struct SubSide {
    pub events: Vec<Event>,
    pub mirror: RemoteMirror,
    /// Gaps, contradicting deltas and stream errors.
    pub stream_errors: u64,
    /// Sequence numbers the mirror never reached.
    pub lost: u64,
}

/// What the reader saw: (send, answer) times of each query, ns since
/// the phase origin.
pub struct ReaderSide {
    pub queries: Vec<(u64, u64)>,
    pub errors: u64,
}

/// Everything the timed phase produced.
pub struct Phase {
    pub requests: Vec<Request>,
    pub wall_s: f64,
    pub accepted: u64,
    pub rejected: u64,
    pub busy: u64,
    pub errors: u64,
    pub sub: Option<SubSide>,
    pub reader: Option<ReaderSide>,
    pub threads_before: Vec<ThreadTimes>,
    pub threads_after: Vec<ThreadTimes>,
    pub steal_ticks: u64,
    /// The writer connection, handed back for the final snapshot.
    pub client: Option<NetClient>,
}

impl Phase {
    /// Bytes of the benchmark's own sample buffers in use.
    pub fn sample_bytes(&self) -> u64 {
        use std::mem::size_of;
        let events = self
            .sub
            .as_ref()
            .map_or(0, |s| s.events.len() * size_of::<Event>());
        let queries = self
            .reader
            .as_ref()
            .map_or(0, |r| r.queries.len() * size_of::<(u64, u64)>());
        (self.requests.len() * size_of::<Request>() + events + queries) as u64
    }

    pub fn attempted(&self) -> u64 {
        let updates: u64 = self.requests.iter().map(|r| r.updates as u64).sum();
        updates
            + self
                .reader
                .as_ref()
                .map_or(0, |r| r.queries.len() as u64 + r.errors)
    }

    pub fn failed(&self) -> u64 {
        self.rejected
            + self.busy
            + self.errors
            + self.sub.as_ref().map_or(0, |s| s.stream_errors + s.lost)
            + self.reader.as_ref().map_or(0, |r| r.errors)
    }
}

/// Uniform random vertex ids below `n`, from a seed (SplitMix64).
struct QueryIds {
    state: u64,
    n: u64,
}

impl QueryIds {
    fn next(&mut self) -> u32 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % self.n) as u32
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Runs the timed phase against the stack at `addr`, with `client` (the
/// set-up connection) as the writer. With `trace_chunk`, stage timing
/// is switched on and off every that many requests, so the traced and
/// untraced rates come from the same minutes of the same run.
pub fn run(
    wl: &Workload,
    addr: SocketAddr,
    client: NetClient,
    updates: &[Update],
    query_seed: u64,
    trace_chunk: Option<usize>,
) -> Result<Phase, String> {
    let origin = Instant::now();
    let target = AtomicU64::new(u64::MAX);
    let done = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
    let (start_tx, start_rx) = mpsc::channel::<()>();
    thread::scope(|s| {
        let (target, done) = (&target, &done);
        // Sample buffers are sized up front (untouched pages cost no
        // memory), so they grow linearly instead of by reallocation and
        // their bytes can be told apart from the stack's.
        let capacity = updates.len().div_ceil(wl.batch) + 16;
        let side = match wl.side {
            Side::Subscriber => {
                thread::Builder::new()
                    .name("load-sub".into())
                    .spawn_scoped(s, move || {
                        subscriber(addr, origin, target, done, capacity, ready_tx).map(SideOut::Sub)
                    })
            }
            Side::Reader => {
                let ids = QueryIds {
                    state: query_seed,
                    n: wl.n as u64,
                };
                thread::Builder::new()
                    .name("load-reader".into())
                    .spawn_scoped(s, move || {
                        reader(addr, origin, done, ids, 8 * capacity, ready_tx, start_rx)
                            .map(SideOut::Reader)
                    })
            }
        }
        .map_err(|e| format!("spawning the side thread: {e}"))?;
        let ready = ready_rx
            .recv()
            .unwrap_or_else(|_| Err("side connection ended before it was ready".into()));
        if let Err(e) = ready {
            done.store(true, Ordering::SeqCst);
            let _ = side.join();
            return Err(e);
        }

        // The writer starts on a signal, after the "before" readings,
        // so the scheduler counters cover all of its timed work.
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let batch = wl.batch;
        let writer = thread::Builder::new()
            .name("load-writer".into())
            .spawn_scoped(s, move || {
                let _ = go_rx.recv();
                let out = writer(client, origin, updates, batch, trace_chunk);
                // Read the counters here, while every load thread is
                // still alive: the side thread stops soon after `done`.
                let after = (host::threads(), host::steal_ticks());
                let last = out.requests.iter().map(|r| r.seq).max().unwrap_or(0);
                target.store(last, Ordering::SeqCst);
                done.store(true, Ordering::SeqCst);
                (out, after)
            });
        let threads_before = host::threads();
        let steal_before = host::steal_ticks();
        let _ = start_tx.send(());
        let _ = go_tx.send(());
        let joined = match writer {
            Ok(w) => w.join().map_err(|_| "writer thread panicked".to_string()),
            Err(e) => Err(format!("spawning the writer: {e}")),
        };
        // Whatever became of the writer, release the side thread.
        done.store(true, Ordering::SeqCst);
        let (w, (threads_after, steal_after)) = joined?;
        let steal_ticks = steal_after.saturating_sub(steal_before);
        dynamis_obs::set_enabled(false);

        let (mut sub, mut reader_out) = (None, None);
        match side
            .join()
            .map_err(|_| "side thread panicked".to_string())??
        {
            SideOut::Sub(x) => sub = Some(x),
            SideOut::Reader(x) => reader_out = Some(x),
        }
        let wall_s = match (w.requests.first(), w.requests.last()) {
            (Some(a), Some(b)) => (b.ack_ns - a.send_ns) as f64 / 1e9,
            _ => 0.0,
        };
        Ok(Phase {
            requests: w.requests,
            wall_s,
            accepted: w.accepted,
            rejected: w.rejected,
            busy: w.busy,
            errors: w.errors,
            sub,
            reader: reader_out,
            threads_before,
            threads_after,
            steal_ticks,
            client: Some(w.client),
        })
    })
}

enum SideOut {
    Sub(SubSide),
    Reader(ReaderSide),
}

struct WriterOut {
    client: NetClient,
    requests: Vec<Request>,
    accepted: u64,
    rejected: u64,
    busy: u64,
    errors: u64,
}

/// The closed loop: send one request, wait for its verdicts, repeat.
/// `Apply` when `batch` is 1, `ApplyBatch` otherwise. A `Busy` shed is
/// counted and the same request is sent again (its latency runs from
/// the first attempt); any other transport error ends the phase.
fn writer(
    mut client: NetClient,
    origin: Instant,
    updates: &[Update],
    batch: usize,
    trace_chunk: Option<usize>,
) -> WriterOut {
    let mut requests = Vec::with_capacity(updates.len().div_ceil(batch));
    let (mut accepted, mut rejected, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut traced = false;
    'requests: for (i, chunk) in updates.chunks(batch).enumerate() {
        if let Some(every) = trace_chunk {
            if i % every == 0 {
                traced = (i / every) % 2 == 1;
                dynamis_obs::set_enabled(traced);
            }
        }
        let send_ns = ns_since(origin);
        let verdicts = loop {
            let reply = if batch == 1 {
                match client.apply(chunk[0].clone()) {
                    Ok(seq) => Ok(vec![Ok(seq)]),
                    Err(NetError::Rejected(e)) => Ok(vec![Err(e)]),
                    Err(e) => Err(e),
                }
            } else {
                client.apply_batch(chunk.to_vec())
            };
            match reply {
                Ok(v) => break v,
                Err(NetError::Busy { .. }) => {
                    busy += 1;
                    thread::sleep(Duration::from_micros(50));
                }
                Err(e) => {
                    eprintln!("perfbench: writer request {i} failed: {e}");
                    errors += 1;
                    break 'requests;
                }
            }
        };
        let ack_ns = ns_since(origin);
        let mut seq = 0;
        for v in &verdicts {
            match v {
                Ok(s) => {
                    accepted += 1;
                    seq = seq.max(*s);
                }
                Err(_) => rejected += 1,
            }
        }
        requests.push(Request {
            send_ns,
            ack_ns,
            seq,
            updates: chunk.len() as u32,
            traced,
        });
    }
    WriterOut {
        client,
        requests,
        accepted,
        rejected,
        busy,
        errors,
    }
}

/// Subscribes from sequence 0, applies the base checkpoint, reports
/// ready, then applies every event until the mirror reaches the
/// writer's last verdict seq. The stop condition is checked after each
/// event and on every read timeout, never by waiting for one more
/// event: when the last request changed nothing, none comes.
fn subscriber(
    addr: SocketAddr,
    origin: Instant,
    target: &AtomicU64,
    done: &AtomicBool,
    capacity: usize,
    ready: mpsc::Sender<Result<(), String>>,
) -> Result<SubSide, String> {
    let setup = || -> Result<_, NetError> {
        let client = NetClient::connect(addr)?;
        let head = client.head_at_hello();
        let mut sub = client.subscribe(0)?;
        sub.set_read_timeout(Some(SUB_POLL))?;
        let mut mirror = RemoteMirror::new();
        let since = Instant::now();
        while mirror.seq() < head {
            if since.elapsed() > CATCH_UP_LIMIT {
                return Err(NetError::Protocol("no base checkpoint arrived"));
            }
            if let Some(ev) = sub.next_event()? {
                mirror.apply_event(&ev)?;
            }
        }
        Ok((sub, mirror))
    };
    let (mut sub, mut mirror) = match setup() {
        Ok(x) => {
            let _ = ready.send(Ok(()));
            x
        }
        Err(e) => {
            let msg = format!("subscriber set-up: {e}");
            let _ = ready.send(Err(msg.clone()));
            return Err(msg);
        }
    };
    // At most one log entry per writer request.
    let mut events = Vec::with_capacity(capacity);
    let mut stream_errors = 0;
    let mut writer_done_at: Option<Instant> = None;
    loop {
        match sub.next_event() {
            Ok(Some(ev)) => {
                let start_ns = ns_since(origin);
                let applied = mirror.apply_event(&ev);
                let end_ns = ns_since(origin);
                let (seq, checkpoint) = match &ev {
                    SubEvent::Delta { seq, .. } => (*seq, false),
                    SubEvent::Checkpoint { seq, .. } => (*seq, true),
                };
                events.push(Event {
                    seq,
                    start_ns,
                    end_ns,
                    checkpoint,
                });
                if let Err(e) = applied {
                    eprintln!("perfbench: subscriber stream broke at seq {seq}: {e}");
                    stream_errors += 1;
                    break;
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("perfbench: subscriber stream ended: {e}");
                stream_errors += 1;
                break;
            }
        }
        if mirror.seq() >= target.load(Ordering::SeqCst) {
            break;
        }
        if done.load(Ordering::SeqCst) {
            let since = *writer_done_at.get_or_insert_with(Instant::now);
            if since.elapsed() > CATCH_UP_LIMIT {
                eprintln!("perfbench: subscriber gave up catching up");
                break;
            }
        }
    }
    let target = target.load(Ordering::SeqCst);
    let lost = if target == u64::MAX {
        0
    } else {
        target.saturating_sub(mirror.seq())
    };
    Ok(SubSide {
        events,
        mirror,
        stream_errors,
        lost,
    })
}

/// Sends `Contains` on uniform random ids below `n`, one at a time,
/// from the writer's first request until its last verdict.
fn reader(
    addr: SocketAddr,
    origin: Instant,
    done: &AtomicBool,
    mut ids: QueryIds,
    capacity: usize,
    ready: mpsc::Sender<Result<(), String>>,
    start: mpsc::Receiver<()>,
) -> Result<ReaderSide, String> {
    let mut client = match NetClient::connect(addr) {
        Ok(c) => {
            let _ = ready.send(Ok(()));
            c
        }
        Err(e) => {
            let msg = format!("reader connect: {e}");
            let _ = ready.send(Err(msg.clone()));
            return Err(msg);
        }
    };
    if start.recv().is_err() {
        return Ok(ReaderSide {
            queries: Vec::new(),
            errors: 0,
        });
    }
    let mut queries = Vec::with_capacity(capacity);
    let mut errors = 0;
    while !done.load(Ordering::SeqCst) {
        let v = ids.next();
        let send_ns = ns_since(origin);
        match client.contains(v) {
            Ok(_) => queries.push((send_ns, ns_since(origin))),
            Err(e) => {
                eprintln!("perfbench: query failed: {e}");
                errors += 1;
                if matches!(e, NetError::Io(_) | NetError::ServerClosed) {
                    break;
                }
            }
        }
    }
    Ok(ReaderSide { queries, errors })
}
