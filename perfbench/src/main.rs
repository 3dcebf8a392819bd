//! One benchmark of the whole dynamis serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_ingest|single_update|read_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Assembles the stack `dynamis net-serve --data-dir` runs (k = 2
//! engine, WAL with group commit, `MisService`, one `NetServer`) in
//! this process, drives it over loopback from two client threads with
//! a seeded stream of valid updates, checks the outputs, and prints the
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
//! The exit code is non-zero when a correctness check fails. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod drive;
mod host;
mod layers;
mod report;
mod stack;

use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::{DynamicGraph, Update};
use dynamis_net::proto::{encode_request, Request};
use dynamis_obs::MetricsSnapshot;
use dynamis_static::verify::{is_independent_dynamic, is_maximal_dynamic};
use report::{median, num, string, Latency, Report};
use std::time::Instant;

/// What the second connection does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Subscribes and feeds a `RemoteMirror`.
    Subscriber,
    /// Sends `Contains` on uniform random ids.
    Reader,
}

/// One workload: graph size, request shape and second connection.
pub struct Workload {
    pub name: &'static str,
    /// Vertices of the Chung–Lu start graph.
    pub n: usize,
    /// Updates per writer request (`Apply` when 1, `ApplyBatch` above).
    pub batch: usize,
    pub side: Side,
    /// Stream updates per second of `--seconds`. A run sends a fixed
    /// number of updates, so the final graph and |I| depend only on
    /// the seed and the run length; the rate sizes it to last about
    /// `--seconds` on a 2-core host.
    pub updates_per_sec: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk_ingest",
        n: 500_000,
        batch: 256,
        side: Side::Subscriber,
        updates_per_sec: 110_000,
    },
    Workload {
        name: "single_update",
        n: 100_000,
        batch: 1,
        side: Side::Subscriber,
        updates_per_sec: 14_000,
    },
    Workload {
        name: "read_mix",
        n: 100_000,
        batch: 16,
        side: Side::Reader,
        updates_per_sec: 150_000,
    },
];

/// Chung–Lu power-law exponent and average degree of every start graph.
const BETA: f64 = 2.4;
const AVG_DEGREE: f64 = 8.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests per traced/untraced alternation in a traced run's timed
/// phase, sized to tens of milliseconds per chunk.
const TRACE_CHUNK_UPDATES: usize = 4096;

/// The end-to-end metrics `BENCHMARK.json` bounds. The p99s, the
/// `visible_*`/`query_*` names and `failed_share` are printed too, but
/// only in the record: across seeds on a 2-core shared host the p99s
/// spread far beyond any usable bound, and `failed_share` is 0.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "upd_per_s",
    "ack_p50_us",
    "read_p50_us",
    "final_is_size",
    "stack_rss_mb",
];

/// The per-layer metrics of a traced run (`BENCHMARK.json`).
const PER_LAYER: [&str; 38] = [
    "core.apply_us_per_upd",
    "core.one_swaps_per_upd",
    "core.two_swaps_per_upd",
    "core.repairs_per_upd",
    "core.swap_search_share",
    "core.build_s",
    "core.heap_mb",
    "serve.us_per_upd",
    "serve.ingest_wait_p50_us",
    "serve.batch_drain_p50_us",
    "serve.broadcast_p50_us",
    "serve.entries_per_upd",
    "serve.query_us",
    "serve.writer_cpu_share",
    "serve.writer_runq_share",
    "durable.us_per_upd",
    "durable.wal_bytes_per_upd",
    "durable.syncs_per_kupd",
    "durable.checkpoints",
    "durable.prepare_s",
    "durable.sync_cpu_share",
    "net.us_per_req",
    "net.req_apply_p50_us",
    "net.req_apply_batch_p50_us",
    "net.req_contains_p50_us",
    "net.hub_encode_p50_us",
    "net.sub_write_p50_us",
    "net.req_bytes_per_upd",
    "net.session_cpu_share",
    "net.session_runq_share",
    "net.hub_cpu_share",
    "net.shed_share",
    "client.apply_event_us",
    "client.events_per_upd",
    "client.wait_after_ack_p50_us",
    "client.reseeds",
    "obs.overhead_share",
    "load.client_cpu_share",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A workload's inputs for one seed: the start graph, the update
/// stream (valid when applied in order), and the stream generator
/// whose shadow graph is the graph after the last update.
pub struct Inputs {
    pub base: DynamicGraph,
    pub updates: Vec<Update>,
    pub stream: UpdateStream,
    pub query_seed: u64,
}

impl Inputs {
    fn generate(wl: &Workload, seed: u64, seconds: u64) -> Inputs {
        let base = chung_lu(wl.n, BETA, AVG_DEGREE, seed);
        let mut stream = UpdateStream::new(&base, StreamConfig::default(), seed ^ 0x5eed_f00d);
        let updates = stream.take_updates(wl.updates_per_sec * seconds as usize);
        Inputs {
            base,
            updates,
            stream,
            query_seed: seed ^ 0x0bad_cafe,
        }
    }
}

/// Whether `solution` is a maximal independent set of the final graph.
fn valid_on_final_graph(inputs: &Inputs, solution: &[u32]) -> bool {
    let g = inputs.stream.shadow();
    is_independent_dynamic(g, solution) && is_maximal_dynamic(g, solution)
}

/// Samples of the timed phase, reduced.
struct PhaseStats {
    ack: Latency,
    visible: Latency,
    query: Latency,
    /// Per visibility sample: visible minus ack, µs.
    wait_after_ack: Vec<f64>,
    /// For each event, the request whose verdict seq it carries.
    event_parent: Vec<Option<usize>>,
}

/// Reduces the phase: ack latency per request; visibility per request
/// whose verdict seq is higher than every seq before it (a no-op
/// request returns the current head, which was already visible); query
/// latency per reader call.
fn phase_stats(phase: &drive::Phase, head_at_start: u64) -> PhaseStats {
    let us = |ns: u64| ns as f64 / 1e3;
    let ack = Latency::of(
        phase
            .requests
            .iter()
            .map(|r| us(r.ack_ns - r.send_ns))
            .collect(),
    );
    let (mut visible, mut wait_after_ack) = (Vec::new(), Vec::new());
    let mut event_parent = Vec::new();
    if let Some(sub) = &phase.sub {
        event_parent = vec![None; sub.events.len()];
        let mut high = head_at_start;
        for (i, r) in phase.requests.iter().enumerate() {
            if r.seq <= high {
                continue;
            }
            high = r.seq;
            let at = sub.events.partition_point(|e| e.seq < r.seq);
            if let Some(e) = sub.events.get(at) {
                visible.push(us(e.end_ns.saturating_sub(r.send_ns)));
                wait_after_ack.push((e.end_ns as f64 - r.ack_ns as f64) / 1e3);
                if e.seq == r.seq {
                    event_parent[at] = Some(i);
                }
            }
        }
    }
    let query = Latency::of(
        phase
            .reader
            .as_ref()
            .map(|r| r.queries.iter().map(|&(s, e)| us(e - s)).collect())
            .unwrap_or_default(),
    );
    PhaseStats {
        ack,
        visible: Latency::of(visible),
        query,
        wait_after_ack,
        event_parent,
    }
}

/// One stack run: set up, timed phase, checks, teardown.
struct StackRun {
    phase: drive::Phase,
    stats: PhaseStats,
    setup_s: f64,
    rss_growth: u64,
    head_at_start: u64,
    final_head: u64,
    final_solution_len: usize,
    wal_bytes: u64,
    wal_dir: String,
    checks: Vec<(&'static str, bool)>,
    /// Registry snapshots around a traced phase.
    obs: Option<(MetricsSnapshot, MetricsSnapshot)>,
}

fn stack_run(
    wl: &Workload,
    inputs: &Inputs,
    scratch: &mut stack::Scratch,
    trace: bool,
) -> Result<StackRun, String> {
    let rss_before = host::rss_bytes();
    let dir = scratch.fresh_dir().map_err(|e| e.to_string())?;
    let (stack, client, setup_s) = stack::setup(inputs.base.clone(), &dir)?;
    let head_at_start = client.head_at_hello();
    let trace_chunk = trace.then(|| (TRACE_CHUNK_UPDATES / wl.batch).max(1));
    let obs_before = dynamis_obs::global().snapshot();
    let mut phase = drive::run(
        wl,
        stack.addr(),
        client,
        &inputs.updates,
        inputs.query_seed,
        trace_chunk,
    )?;
    let obs = trace.then(|| (obs_before, dynamis_obs::global().snapshot()));
    let rss_growth = host::rss_bytes()
        .saturating_sub(rss_before)
        .saturating_sub(phase.sample_bytes());
    let stats = phase_stats(&phase, head_at_start);

    // Checks, outside the timed phase.
    let mut client = phase.client.take().expect("the phase returns the writer");
    let (snap_seq, snap) = client
        .snapshot()
        .map_err(|e| format!("final snapshot: {e}"))?;
    drop(client);
    let report = stack.shutdown();
    let wal_bytes = stack::dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut checks = vec![
        ("snapshot_equals_service", snap == report.solution),
        ("snapshot_at_final_head", snap_seq == report.head_seq),
        (
            "maximal_independent_on_final_graph",
            valid_on_final_graph(inputs, &report.solution),
        ),
    ];
    if let Some(sub) = &phase.sub {
        checks.push((
            "mirror_equals_snapshot",
            sub.mirror.seq() == snap_seq && sub.mirror.solution() == snap,
        ));
    }
    Ok(StackRun {
        phase,
        stats,
        setup_s,
        rss_growth,
        head_at_start,
        final_head: report.head_seq,
        final_solution_len: report.solution.len(),
        wal_bytes,
        wal_dir: dir.display().to_string(),
        checks,
        obs,
    })
}

/// Set-up alone: build the stack, complete the first `Hello`, tear
/// down. Returns the set-up seconds.
fn setup_only(inputs: &Inputs, scratch: &mut stack::Scratch) -> Result<f64, String> {
    let dir = scratch.fresh_dir().map_err(|e| e.to_string())?;
    let (stack, client, secs) = stack::setup(inputs.base.clone(), &dir)?;
    drop(client);
    stack.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(secs)
}

/// The record every run prints: host, inputs, sample counts, checks.
fn base_report(args: &Args, inputs: &Inputs, gen_s: f64, run: &StackRun) -> Report {
    let wl = args.workload;
    let p = &run.phase;
    let mut r = Report::default();
    r.fact("workload", string(wl.name));
    r.fact("seed", args.seed.to_string());
    r.fact("seconds", args.seconds.to_string());
    r.fact("trace", args.trace.to_string());
    r.fact("nproc", host::nproc().to_string());
    r.fact("n", wl.n.to_string());
    r.fact("m", inputs.base.num_edges().to_string());
    r.fact("batch", wl.batch.to_string());
    r.fact("updates", inputs.updates.len().to_string());
    r.fact("requests", p.requests.len().to_string());
    r.fact("input_gen_s", num(gen_s));
    let sync = dynamis_durable::DurableOptions::default().sync;
    r.fact("sync_policy", string(&format!("{sync:?}")));
    r.fact("wal_path", string(&run.wal_dir));
    r.fact("steal_ticks", p.steal_ticks.to_string());
    r.fact("ack_samples", run.stats.ack.samples.to_string());
    r.fact("visible_samples", run.stats.visible.samples.to_string());
    r.fact("query_samples", run.stats.query.samples.to_string());
    r.fact("accepted", p.accepted.to_string());
    r.fact("rejected", p.rejected.to_string());
    r.fact("busy", p.busy.to_string());
    r.fact("request_errors", p.errors.to_string());
    if let Some(s) = &p.sub {
        r.fact("stream_errors", s.stream_errors.to_string());
        r.fact("lost_deltas", s.lost.to_string());
    }
    if let Some(q) = &p.reader {
        r.fact("query_errors", q.errors.to_string());
    }
    let checks: Vec<String> = run
        .checks
        .iter()
        .map(|(name, ok)| format!("\"{name}\": {ok}"))
        .collect();
    r.fact("checks", format!("{{{}}}", checks.join(", ")));
    r
}

/// Accepted-update throughput of the timed phase, as the median over
/// consecutive segments, so a burst of host interference moves one
/// segment rather than the result. A segment is one WAL checkpoint
/// interval, so every segment carries the same checkpoint work — or an
/// eighth of the phase when the phase holds fewer than eight intervals.
/// A trailing partial segment is left out.
fn segment_rate(requests: &[drive::Request]) -> f64 {
    let total: u64 = requests.iter().map(|q| q.updates as u64).sum();
    let every = dynamis_durable::DurableOptions::default()
        .checkpoint_every
        .min(total / 8)
        .max(1);
    let mut rates = Vec::new();
    let (mut start, mut updates) = (0usize, 0u64);
    for (i, q) in requests.iter().enumerate() {
        updates += q.updates as u64;
        if updates >= every {
            let ns = q.ack_ns - requests[start].send_ns;
            rates.push(updates as f64 / ns.max(1) as f64 * 1e9);
            (start, updates) = (i + 1, 0);
        }
    }
    median(&mut rates)
}

/// The end-to-end metrics (tracing off).
fn end_to_end(r: &mut Report, wl: &Workload, run: &StackRun, setups: &mut [f64]) {
    let p = &run.phase;
    let s = &run.stats;
    r.metric("setup_s", median(setups), "s");
    r.metric("upd_per_s", segment_rate(&p.requests), "upd/s");
    r.metric("ack_p50_us", s.ack.p50, "us");
    r.metric("ack_p99_us", s.ack.p99, "us");
    let read = match wl.side {
        Side::Subscriber => s.visible,
        Side::Reader => s.query,
    };
    r.metric("read_p50_us", read.p50, "us");
    r.metric("read_p99_us", read.p99, "us");
    r.metric("final_is_size", run.final_solution_len as f64, "vertices");
    r.metric("stack_rss_mb", run.rss_growth as f64 / 1e6, "MB");
    match wl.side {
        Side::Subscriber => {
            r.metric("visible_p50_us", s.visible.p50, "us");
            r.metric("visible_p99_us", s.visible.p99, "us");
        }
        Side::Reader => {
            r.metric("query_p50_us", s.query.p50, "us");
            r.metric("query_p99_us", s.query.p99, "us");
        }
    }
    r.metric(
        "failed_share",
        p.failed() as f64 / p.attempted().max(1) as f64,
        "ratio",
    );
}

fn hist_p50_us(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name)
        .map_or(0.0, |h| h.quantile(0.5) as f64 / 1e3)
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// The per-layer metrics (traced run).
fn per_layer(
    r: &mut Report,
    wl: &Workload,
    inputs: &Inputs,
    run: &StackRun,
    l: &layers::LayerCosts,
) {
    let p = &run.phase;
    let (before, after) = run.obs.as_ref().expect("traced runs snapshot the registry");
    let upd = l.updates.max(1) as f64;
    let accepted = p.accepted.max(1) as f64;
    let share =
        |prefix: &str| host::thread_shares(&p.threads_before, &p.threads_after, prefix, p.wall_s);

    r.metric("core.apply_us_per_upd", l.level_s[0] / upd * 1e6, "us");
    r.metric(
        "core.one_swaps_per_upd",
        l.stats.one_swaps as f64 / upd,
        "count",
    );
    r.metric(
        "core.two_swaps_per_upd",
        l.stats.two_swaps as f64 / upd,
        "count",
    );
    r.metric(
        "core.repairs_per_upd",
        l.stats.repairs as f64 / upd,
        "count",
    );
    r.metric(
        "core.swap_search_share",
        l.swap_search_ns as f64 / 1e9 / l.level_s[0].max(1e-9),
        "ratio",
    );
    r.metric("core.build_s", l.build_s, "s");
    r.metric("core.heap_mb", l.heap_bytes as f64 / 1e6, "MB");

    r.metric(
        "serve.us_per_upd",
        (l.level_s[1] - l.level_s[0]) / upd * 1e6,
        "us",
    );
    r.metric(
        "serve.ingest_wait_p50_us",
        hist_p50_us(after, "serve_ingest_wait_ns"),
        "us",
    );
    r.metric(
        "serve.batch_drain_p50_us",
        hist_p50_us(after, "serve_batch_drain_ns"),
        "us",
    );
    r.metric(
        "serve.broadcast_p50_us",
        hist_p50_us(after, "serve_delta_broadcast_ns"),
        "us",
    );
    r.metric(
        "serve.entries_per_upd",
        (run.final_head - run.head_at_start) as f64 / accepted,
        "count",
    );
    r.metric(
        "serve.query_us",
        if l.queries > 0 {
            l.query_s / l.queries as f64 * 1e6
        } else {
            0.0
        },
        "us",
    );
    let (cpu, runq) = share("dynamis-serve-w");
    r.metric("serve.writer_cpu_share", cpu, "ratio");
    r.metric("serve.writer_runq_share", runq, "ratio");

    r.metric(
        "durable.us_per_upd",
        (l.level_s[2] - l.level_s[1]) / upd * 1e6,
        "us",
    );
    r.metric(
        "durable.wal_bytes_per_upd",
        run.wal_bytes as f64 / accepted,
        "B",
    );
    r.metric(
        "durable.syncs_per_kupd",
        counter_delta(before, after, "durable_group_syncs_total") / accepted * 1e3,
        "count",
    );
    r.metric(
        "durable.checkpoints",
        counter_delta(before, after, "durable_checkpoints_total"),
        "count",
    );
    r.metric("durable.prepare_s", l.prepare_s, "s");
    r.metric(
        "durable.sync_cpu_share",
        share("dynamis-wal-syn").0,
        "ratio",
    );

    r.metric(
        "net.us_per_req",
        (l.level_s[3] - l.level_s[2]) / l.requests.max(1) as f64 * 1e6,
        "us",
    );
    r.metric(
        "net.req_apply_p50_us",
        hist_p50_us(after, "net_req_apply_ns"),
        "us",
    );
    r.metric(
        "net.req_apply_batch_p50_us",
        hist_p50_us(after, "net_req_apply_batch_ns"),
        "us",
    );
    r.metric(
        "net.req_contains_p50_us",
        hist_p50_us(after, "net_req_contains_ns"),
        "us",
    );
    r.metric(
        "net.hub_encode_p50_us",
        hist_p50_us(after, "net_hub_encode_ns"),
        "us",
    );
    r.metric(
        "net.sub_write_p50_us",
        hist_p50_us(after, "net_sub_write_ns"),
        "us",
    );
    let mut buf = Vec::new();
    let req_bytes: usize = inputs
        .updates
        .chunks(wl.batch)
        .map(|req| {
            let req = if req.len() == 1 {
                Request::Apply(req[0].clone())
            } else {
                Request::ApplyBatch(req.to_vec())
            };
            encode_request(&req, &mut buf);
            buf.len()
        })
        .sum();
    r.metric("net.req_bytes_per_upd", req_bytes as f64 / upd, "B");
    let (cpu, runq) = share("dynamis-net-ses");
    r.metric("net.session_cpu_share", cpu, "ratio");
    r.metric("net.session_runq_share", runq, "ratio");
    r.metric("net.hub_cpu_share", share("dynamis-net-hub").0, "ratio");
    r.metric(
        "net.shed_share",
        p.busy as f64 / (p.requests.len() as u64 + p.busy).max(1) as f64,
        "ratio",
    );

    let (apply_event_us, events, reseeds) = match &p.sub {
        Some(s) if !s.events.is_empty() => (
            s.events
                .iter()
                .map(|e| (e.end_ns - e.start_ns) as f64)
                .sum::<f64>()
                / s.events.len() as f64
                / 1e3,
            s.events.len() as f64,
            s.events.iter().filter(|e| e.checkpoint).count() as f64,
        ),
        _ => (0.0, 0.0, 0.0),
    };
    r.metric("client.apply_event_us", apply_event_us, "us");
    r.metric("client.events_per_upd", events / accepted, "count");
    r.metric(
        "client.wait_after_ack_p50_us",
        median(&mut run.stats.wait_after_ack.clone()),
        "us",
    );
    r.metric("client.reseeds", reseeds, "count");

    r.metric("obs.overhead_share", overhead_share(&p.requests), "ratio");
    r.metric("load.client_cpu_share", share("load-").0, "ratio");
}

/// `1 − traced ÷ untraced` update rate, as the median over adjacent
/// pairs of alternation chunks: each pair saw the same minutes of the
/// host, and the median keeps one chunk that caught a WAL checkpoint
/// from deciding the result.
fn overhead_share(requests: &[drive::Request]) -> f64 {
    // Chunks: maximal runs of requests with the same `traced` flag.
    let mut chunks: Vec<(bool, u64, u64)> = Vec::new();
    for q in requests {
        let ns = q.ack_ns - q.send_ns;
        match chunks.last_mut() {
            Some(c) if c.0 == q.traced => {
                c.1 += q.updates as u64;
                c.2 += ns;
            }
            _ => chunks.push((q.traced, q.updates as u64, ns)),
        }
    }
    let mut ratios: Vec<f64> = chunks
        .windows(2)
        .step_by(2)
        .filter(|w| w[0].0 != w[1].0)
        .map(|w| {
            let (on, off) = if w[0].0 { (w[0], w[1]) } else { (w[1], w[0]) };
            let rate = |c: (bool, u64, u64)| c.1 as f64 / c.2.max(1) as f64;
            1.0 - rate(on) / rate(off)
        })
        .collect();
    median(&mut ratios)
}

/// Writes the traced run's record: facts, every metric, the embedded
/// registry snapshot and the benchmark's spans (one per client call and
/// per mirror apply, the latter parented to the request whose verdict
/// seq it carries).
fn write_trace(args: &Args, r: &Report, run: &StackRun) -> std::io::Result<String> {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(".bench_build").join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    let p = &run.phase;
    let mut spans = String::new();
    let name = if args.workload.batch == 1 {
        "net.apply"
    } else {
        "net.apply_batch"
    };
    for (i, q) in p.requests.iter().enumerate() {
        writeln!(
            spans,
            "[\"{name}\", {}, {}, {i}, null],",
            q.send_ns, q.ack_ns
        )
        .unwrap();
    }
    let base = p.requests.len();
    if let Some(s) = &p.sub {
        for (j, e) in s.events.iter().enumerate() {
            let parent = run.stats.event_parent[j].map_or("null".to_string(), |i| i.to_string());
            writeln!(
                spans,
                "[\"client.apply_event\", {}, {}, {}, {parent}],",
                e.start_ns,
                e.end_ns,
                base + j
            )
            .unwrap();
        }
    }
    if let Some(q) = &p.reader {
        for (j, (s, e)) in q.queries.iter().enumerate() {
            writeln!(spans, "[\"net.contains\", {s}, {e}, {}, null],", base + j).unwrap();
        }
    }
    let spans = spans.trim_end().trim_end_matches(',');
    let body = format!(
        "{{\"facts\": {},\n\"metrics\": {},\n\
         \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"id\", \"parent\"],\n\
         \"spans\": [\n{spans}\n]}}\n",
        r.facts_json(),
        r.metrics_json(None),
    );
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<(Report, bool, u64, u64), String> {
    let wl = args.workload;
    let t = Instant::now();
    let inputs = Inputs::generate(wl, args.seed, args.seconds);
    let gen_s = t.elapsed().as_secs_f64();
    let mut scratch = stack::Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let run = stack_run(wl, &inputs, &mut scratch, args.trace)?;
    let mut r = base_report(args, &inputs, gen_s, &run);
    let mut correct = run.checks.iter().all(|(_, ok)| *ok);
    if args.trace {
        let l = layers::replay(wl, &inputs, &mut scratch)?;
        correct &= l.agree;
        r.fact("layers_agree", l.agree.to_string());
        r.fact(
            "layer_seconds",
            format!(
                "[{}, {}, {}, {}]",
                num(l.level_s[0]),
                num(l.level_s[1]),
                num(l.level_s[2]),
                num(l.level_s[3])
            ),
        );
        r.fact("layer_solution_size", l.solution_len.to_string());
        per_layer(&mut r, wl, &inputs, &run, &l);
        if let Some((_, snapshot)) = &run.obs {
            r.fact("obs_snapshot", snapshot.to_json());
        }
        match write_trace(args, &r, &run) {
            Ok(path) => r.fact("trace_file", string(&path)),
            Err(e) => return Err(format!("writing the trace: {e}")),
        }
    } else {
        let mut setups = vec![run.setup_s];
        for _ in 1..SETUPS {
            setups.push(setup_only(&inputs, &mut scratch)?);
        }
        r.fact(
            "setup_samples_s",
            format!(
                "[{}]",
                setups
                    .iter()
                    .map(|s| num(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        end_to_end(&mut r, wl, &run, &mut setups);
    }
    Ok((r, correct, run.phase.attempted(), run.phase.failed()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let (report, correct, attempted, failed) = match run(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"record\": {}, \"metrics\": {}}}",
        report.facts_json(),
        report.metrics_json(None)
    );
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(missing) = names.iter().find(|n| report.get(n).is_none()) {
        eprintln!("perfbench: metric {missing} was not measured");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.metrics_json(Some(names))
    );
    if !correct {
        eprintln!("perfbench: a correctness check failed");
        std::process::exit(1);
    }
}
