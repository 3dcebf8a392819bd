//! Serving-layer throughput bench: the single-writer / delta-broadcast
//! architecture of `dynamis-serve` vs. the obvious alternative, a
//! mutex-wrapped engine shared by the writer and every reader.
//!
//! Two workloads over the paper's 100k-vertex Chung–Lu graph (or, with
//! `--graph FILE`, over a real SNAP edge-list trace):
//!
//! * the default mixed insert/delete stream (§V-A), and
//! * the deletion-heavy adversarial stream of
//!   [`dynamis_gen::adversarial`] (insert-burst-then-targeted-delete of
//!   high-degree solution vertices).
//!
//! For each workload × architecture, two phases:
//!
//! * **ingest** — the pure write path, no readers: updates/sec from
//!   first submit to flushed queue (serve's adaptive batching vs. a
//!   per-update lock-and-apply loop);
//! * **mixed** — the same ingest while reader threads issue
//!   point-membership queries nonstop (with a periodic yield so
//!   low-core machines still schedule the writer): updates/sec under
//!   read pressure plus aggregate queries/sec over the same window.
//!
//! Reader count adapts to the machine (`available_parallelism - 2`,
//! clamped to 1..=4) and is recorded in the JSON.
//!
//! Writes `BENCH_PR3.json` (override with `DYNAMIS_BENCH_OUT`); honors
//! `DYNAMIS_FAST=1`.

use dynamis_bench::alloc_track::TrackingAlloc;
use dynamis_core::{DyTwoSwap, DynamicMis, EngineBuilder};
use dynamis_gen::adversarial::{AdversarialConfig, AdversarialStream};
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::io::edgelist::read_dynamic;
use dynamis_graph::{DynamicGraph, Update};
use dynamis_obs::{bucket_bounds, HistogramSnapshot, MetricsSnapshot};
use dynamis_serve::{MisService, ServeConfig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Reader threads for the mixed phase: leave room for the writer and
/// the feeder, keep at least one.
fn reader_count() -> usize {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(2).clamp(1, 4)
}

struct RunReport {
    workload: &'static str,
    arch: &'static str,
    phase: &'static str,
    readers: usize,
    updates: usize,
    run_secs: f64,
    updates_per_sec: f64,
    queries: u64,
    queries_per_sec: f64,
    solution_size: usize,
    serve_metrics: Option<MetricsSnapshot>,
}

/// Power-of-two buckets of the reported batch-size histogram: bucket
/// `i` counts merged batches of `2^i ..= 2^(i+1) - 1` updates (the last
/// bucket is open-ended).
const BATCH_OCTAVES: usize = 9;

/// The octave bucket of a merged batch of `size` updates.
fn octave(size: u64) -> usize {
    (63 - size.max(1).leading_zeros() as usize).min(BATCH_OCTAVES - 1)
}

/// Folds the service's full-resolution `serve_batch_size` histogram
/// into [`BATCH_OCTAVES`] buckets. The fold is exact: no log bucket
/// crosses an octave.
fn batch_octaves(h: &HistogramSnapshot) -> [u64; BATCH_OCTAVES] {
    let mut out = [0u64; BATCH_OCTAVES];
    for &(idx, count) in &h.buckets {
        out[octave(bucket_bounds(idx as usize).0)] += count;
    }
    out
}

/// Pseudo-random query key sequence (Knuth multiplicative hashing) —
/// identical across architectures so reads hit the same distribution.
#[inline]
fn next_key(v: u32) -> u32 {
    v.wrapping_mul(2_654_435_761).wrapping_add(1)
}

fn run_serve(
    workload: &'static str,
    base: &DynamicGraph,
    ups: &[Update],
    n: usize,
    readers: usize,
) -> RunReport {
    let (service, mut reader0) = MisService::spawn(
        EngineBuilder::on(base.clone()).k(2),
        ServeConfig {
            queue_updates: 1024,
            burst: 256,
            log_window: 1024,
            first_seq: 0,
        },
    )
    .expect("engine construction");
    let stop = Arc::new(AtomicBool::new(false));
    let reader_threads: Vec<_> = (0..readers)
        .map(|i| {
            let mut r = service.reader();
            let stop = Arc::clone(&stop);
            let n = n as u32;
            thread::spawn(move || {
                let (mut queries, mut v) = (0u64, i as u32);
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(r.contains(v % n));
                    v = next_key(v);
                    queries += 1;
                    if queries % 64 == 0 {
                        thread::yield_now();
                    }
                }
                queries
            })
        })
        .collect();

    let t = Instant::now();
    for u in ups {
        service.submit_detached(u.clone()).expect("service alive");
    }
    let report = service.shutdown(); // flush
    let run_secs = t.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let queries: u64 = reader_threads.into_iter().map(|h| h.join().unwrap()).sum();

    let m = &report.metrics;
    assert_eq!(m.counter("serve_applied_total"), Some(ups.len() as u64));
    assert_eq!(
        m.counter("serve_desyncs_total"),
        Some(0),
        "broadcast must never desync"
    );
    assert_eq!(
        reader0.snapshot(),
        report.solution,
        "reader mirror must equal the engine solution at quiesce"
    );

    RunReport {
        workload,
        arch: "serve",
        phase: if readers == 0 { "ingest" } else { "mixed" },
        readers,
        updates: ups.len(),
        run_secs,
        updates_per_sec: ups.len() as f64 / run_secs,
        queries,
        queries_per_sec: queries as f64 / run_secs,
        solution_size: report.solution.len(),
        serve_metrics: Some(report.metrics),
    }
}

fn run_mutex(
    workload: &'static str,
    base: &DynamicGraph,
    ups: &[Update],
    n: usize,
    readers: usize,
) -> RunReport {
    let engine: DyTwoSwap = EngineBuilder::on(base.clone())
        .k(2)
        .build_as()
        .expect("engine construction");
    let engine = Arc::new(Mutex::new(engine));
    let stop = Arc::new(AtomicBool::new(false));
    let reader_threads: Vec<_> = (0..readers)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let n = n as u32;
            thread::spawn(move || {
                let (mut queries, mut v) = (0u64, i as u32);
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(engine.lock().unwrap().contains(v % n));
                    v = next_key(v);
                    queries += 1;
                    if queries % 64 == 0 {
                        thread::yield_now();
                    }
                }
                queries
            })
        })
        .collect();

    let t = Instant::now();
    for u in ups {
        engine
            .lock()
            .unwrap()
            .try_apply(u)
            .expect("generated stream is valid");
    }
    let run_secs = t.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let queries: u64 = reader_threads.into_iter().map(|h| h.join().unwrap()).sum();
    let solution_size = engine.lock().unwrap().size();

    RunReport {
        workload,
        arch: "mutex",
        phase: if readers == 0 { "ingest" } else { "mixed" },
        readers,
        updates: ups.len(),
        run_secs,
        updates_per_sec: ups.len() as f64 / run_secs,
        queries,
        queries_per_sec: queries as f64 / run_secs,
        solution_size,
        serve_metrics: None,
    }
}

fn main() {
    let fast = dynamis_bench::fast_mode();
    let (n, updates) = if fast {
        (10_000, 20_000)
    } else {
        (100_000, 200_000)
    };
    let (beta, avg_degree, seed) = (2.4, 8.0, 77);
    let graph_file = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--graph")
            .map(|i| args.get(i + 1).expect("--graph needs a FILE").clone())
    };

    let (base, model) = match &graph_file {
        Some(path) => {
            eprintln!("serve: loading edge list {path}");
            (
                read_dynamic(path).expect("readable SNAP edge list"),
                format!("edge list {path}"),
            )
        }
        None => {
            eprintln!(
                "serve: building Chung-Lu base graph (n = {n}, beta = {beta}, d = {avg_degree})"
            );
            (chung_lu(n, beta, avg_degree, seed), "chung_lu".to_string())
        }
    };
    // Query keys and stream generation follow the actual graph, which
    // for a file trace differs from the synthetic n.
    let n = base.capacity();
    let mixed =
        UpdateStream::new(&base, StreamConfig::default(), seed ^ 0xfeed).take_updates(updates);
    let adversarial = AdversarialStream::new(&base, AdversarialConfig::default(), seed ^ 0xdead)
        .take_updates(updates);
    let readers = reader_count();
    eprintln!(
        "serve: m = {}, {} updates per workload, {readers} readers (mixed phase); 8 runs",
        base.num_edges(),
        updates
    );

    let mut reports = Vec::new();
    for (workload, ups) in [("mixed", &mixed), ("adversarial", &adversarial)] {
        reports.push(run_serve(workload, &base, ups, n, 0));
        reports.push(run_mutex(workload, &base, ups, n, 0));
        reports.push(run_serve(workload, &base, ups, n, readers));
        reports.push(run_mutex(workload, &base, ups, n, readers));
    }

    let mut table = dynamis_bench::Table::new(vec![
        "workload",
        "arch",
        "phase",
        "updates/s",
        "queries/s",
        "mean batch",
        "|I|",
    ]);
    for r in &reports {
        table.row(vec![
            r.workload.to_string(),
            r.arch.to_string(),
            r.phase.to_string(),
            format!("{:.0}", r.updates_per_sec),
            if r.readers == 0 {
                "-".to_string()
            } else {
                format!("{:.0}", r.queries_per_sec)
            },
            r.serve_metrics.as_ref().map_or("-".into(), |m| {
                format!("{:.1}", m.histogram("serve_batch_size").unwrap().mean())
            }),
            r.solution_size.to_string(),
        ]);
    }
    table.print();

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"serve\",").unwrap();
    let cores = thread::available_parallelism().map_or(1, |c| c.get());
    writeln!(
        json,
        "  \"workload\": {{\"model\": \"{model}\", \"n\": {n}, \"beta\": {beta}, \
         \"avg_degree\": {avg_degree}, \"updates\": {updates}, \"seed\": {seed}, \
         \"readers\": {readers}, \"cores\": {cores}, \"fast\": {fast}}},"
    )
    .unwrap();
    writeln!(json, "  \"runs\": [").unwrap();
    for (i, r) in reports.iter().enumerate() {
        let serve_extra = r.serve_metrics.as_ref().map_or(String::from("null"), |m| {
            let batches = m.histogram("serve_batch_size").unwrap();
            let hist: Vec<String> = batch_octaves(batches)
                .iter()
                .map(|b| b.to_string())
                .collect();
            format!(
                "{{\"batches\": {}, \"mean_batch\": {:.2}, \"batch_hist\": [{}], \
                 \"head_seq\": {}, \"resyncs\": {}, \"desyncs\": {}}}",
                batches.count,
                batches.mean(),
                hist.join(", "),
                m.gauge("serve_head_seq").unwrap_or(0),
                m.counter("serve_resyncs_total").unwrap_or(0),
                m.counter("serve_desyncs_total").unwrap_or(0)
            )
        });
        writeln!(
            json,
            "    {{\"workload\": \"{}\", \"arch\": \"{}\", \"phase\": \"{}\", \
             \"readers\": {}, \"updates\": {}, \
             \"run_secs\": {:.3}, \"updates_per_sec\": {:.1}, \"queries\": {}, \
             \"queries_per_sec\": {:.1}, \"solution_size\": {}, \"serve\": {}}}{}",
            r.workload,
            r.arch,
            r.phase,
            r.readers,
            r.updates,
            r.run_secs,
            r.updates_per_sec,
            r.queries,
            r.queries_per_sec,
            r.solution_size,
            serve_extra,
            if i + 1 < reports.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    let out = std::env::var("DYNAMIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR3.json".to_string());
    std::fs::write(&out, &json).expect("write bench report");
    eprintln!("serve: wrote {out}");

    for w in ["mixed", "adversarial"] {
        for phase in ["ingest", "mixed"] {
            let get = |arch: &str, f: fn(&RunReport) -> f64| {
                reports
                    .iter()
                    .find(|r| r.workload == w && r.arch == arch && r.phase == phase)
                    .map(f)
                    .unwrap()
            };
            let queries = if phase == "mixed" {
                format!(
                    ", {:.2}x queries/s",
                    get("serve", |r| r.queries_per_sec) / get("mutex", |r| r.queries_per_sec)
                )
            } else {
                String::new()
            };
            eprintln!(
                "serve: {w}/{phase} — serve vs mutex: {:.2}x updates/s{queries}",
                get("serve", |r| r.updates_per_sec) / get("mutex", |r| r.updates_per_sec),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamis_obs::Histogram;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(octave(1), 0);
        assert_eq!(octave(2), 1);
        assert_eq!(octave(3), 1);
        assert_eq!(octave(4), 2);
        assert_eq!(octave(255), 7);
        assert_eq!(octave(256), 8);
        assert_eq!(octave(1 << 20), BATCH_OCTAVES - 1);
        // The fold of a full-resolution histogram is exact.
        let h = Histogram::new();
        for size in [1, 3, 3, 17, 255, 256, 1 << 20] {
            h.record(size);
        }
        assert_eq!(batch_octaves(&h.snapshot()), [1, 2, 0, 0, 1, 0, 0, 1, 2]);
    }
}
