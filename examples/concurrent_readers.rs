//! Serving concurrent readers: one writer thread maintains the
//! independent set over a live Chung–Lu update stream while several
//! query threads answer membership/size queries from their own
//! delta-fed mirrors — no engine lock anywhere.
//!
//! ```bash
//! cargo run --release --example concurrent_readers
//! ```

use dynamis::gen::powerlaw::chung_lu;
use dynamis::gen::{StreamConfig, UpdateStream};
use dynamis::serve::{MisService, ServeConfig};
use dynamis::EngineBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

fn main() {
    let (n, updates, readers) = (20_000, 40_000, 3);
    let seed = 99;
    println!("building Chung-Lu graph (n = {n}) and a mixed update stream…");
    let base = chung_lu(n, 2.4, 8.0, seed);
    let ups =
        UpdateStream::new(&base, StreamConfig::default(), seed ^ 0xbeef).take_updates(updates);

    let (service, mut main_reader) = MisService::spawn(
        EngineBuilder::on(base).k(2),
        ServeConfig {
            queue_updates: 512,
            burst: 256,
            log_window: 1024,
            first_seq: 0,
        },
    )
    .expect("engine construction");
    println!(
        "service up; bootstrap solution has {} vertices (seq {})",
        main_reader.len(),
        main_reader.seq()
    );

    // Query threads: each owns an independent ReaderHandle and hammers
    // point lookups, syncing lazily from the broadcast delta log.
    let stop = Arc::new(AtomicBool::new(false));
    let query_threads: Vec<_> = (0..readers)
        .map(|id| {
            let mut r = service.reader();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let (mut queries, mut members) = (0u64, 0u64);
                let mut v = id as u32;
                while !stop.load(Ordering::Relaxed) {
                    if r.contains(v % (n as u32)) {
                        members += 1;
                    }
                    v = v.wrapping_mul(2_654_435_761).wrapping_add(1);
                    queries += 1;
                }
                (id, queries, members, r.seq())
            })
        })
        .collect();

    // The writer side: fire-and-forget ingest of the whole stream.
    let t = Instant::now();
    for u in ups {
        service.submit_detached(u).expect("service alive");
    }
    let live = service.metrics();
    println!(
        "ingest queued in {:?}; live: head seq {}, queue depth {}, {} readers",
        t.elapsed(),
        live.gauge("serve_head_seq").unwrap_or(0),
        live.gauge("serve_queue_depth").unwrap_or(0),
        live.gauge("serve_readers").unwrap_or(0),
    );
    let report = service.shutdown(); // flushes the queue
    let elapsed = t.elapsed();
    stop.store(true, Ordering::Relaxed);

    let applied = report.metrics.counter("serve_applied_total").unwrap_or(0);
    println!(
        "applied {applied} updates in {elapsed:.2?} ({:.0} updates/s), mean batch {:.1}",
        applied as f64 / elapsed.as_secs_f64(),
        report.metrics.histogram("serve_batch_size").unwrap().mean(),
    );
    for h in query_threads {
        let (id, queries, members, seq) = h.join().unwrap();
        println!(
            "reader {id}: {queries} point queries ({:.0}/s), {members} hits, synced to seq {seq}",
            queries as f64 / elapsed.as_secs_f64()
        );
    }
    // Quiesce check: a reader mirror is exactly the engine's solution.
    assert_eq!(main_reader.snapshot(), report.solution);
    println!(
        "final |I| = {} at seq {} — reader mirror ≡ engine solution ✓",
        report.solution.len(),
        report.head_seq
    );
}
