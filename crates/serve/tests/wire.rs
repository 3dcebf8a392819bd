//! Property tests for the versioned wire codec: every value
//! round-trips bit-exactly, and *no* byte-level corruption — mutation,
//! truncation, or garbage — can make a decoder panic or allocate
//! unboundedly. Decoding is total: it returns the value or a typed
//! [`WireError`].

use dynamis_core::{EngineError, EngineStats, SolutionDelta};
use dynamis_graph::{GraphError, Update};
use dynamis_obs::{Event, HistogramSnapshot, MetricsSnapshot, NUM_BUCKETS, SNAPSHOT_VERSION};
use dynamis_serve::wire::{
    decode_delta, decode_engine_error, decode_log_entry, decode_metrics, decode_update,
    decode_verdict, encode_delta, encode_engine_error, encode_log_entry, encode_metrics,
    encode_update, encode_verdict, WireError,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn arb_update(rng: &mut SmallRng) -> Update {
    match rng.gen_range(0..4u32) {
        0 => Update::InsertEdge(rng.gen_range(0..1000u32), rng.gen_range(0..1000u32)),
        1 => Update::RemoveEdge(rng.gen_range(0..1000u32), rng.gen_range(0..1000u32)),
        2 => Update::InsertVertex {
            id: rng.gen_range(0..1000u32),
            neighbors: (0..rng.gen_range(0..8usize))
                .map(|_| rng.gen_range(0..1000u32))
                .collect(),
        },
        _ => Update::RemoveVertex(rng.gen_range(0..1000u32)),
    }
}

fn arb_delta(rng: &mut SmallRng) -> SolutionDelta {
    SolutionDelta {
        entered: (0..rng.gen_range(0..16usize)).map(|_| rng.gen()).collect(),
        left: (0..rng.gen_range(0..16usize)).map(|_| rng.gen()).collect(),
        stats: EngineStats {
            updates: rng.gen(),
            one_swaps: rng.gen(),
            two_swaps: rng.gen(),
            perturbations: rng.gen(),
            repairs: rng.gen(),
            entry_scan_steps: rng.gen(),
            hot_hash_probes: rng.gen(),
        },
    }
}

fn arb_graph_error(rng: &mut SmallRng) -> GraphError {
    match rng.gen_range(0..5u32) {
        0 => GraphError::VertexNotFound(rng.gen()),
        1 => GraphError::SelfLoop(rng.gen()),
        2 => GraphError::IdMismatch {
            expected: rng.gen(),
            got: rng.gen(),
        },
        3 => GraphError::Parse {
            line: rng.gen_range(0..1_000_000usize),
            message: format!("token {}", rng.gen_range(0..100u32)),
        },
        _ => GraphError::Io(format!("io case {}", rng.gen_range(0..100u32))),
    }
}

fn arb_engine_error(rng: &mut SmallRng, depth: usize) -> EngineError {
    // `BadParameter` carries &'static str; draw from a fixed pool (the
    // decoder interns, so arbitrary strings round-trip too — see the
    // unit test in wire.rs — but the pool keeps generation allocation-free).
    const PARAMS: [&str; 3] = ["interval", "window", "threshold"];
    let top = if depth == 0 { 9 } else { 8 };
    match rng.gen_range(0..top) {
        0 => EngineError::Graph(arb_graph_error(rng)),
        1 => EngineError::DuplicateEdge(rng.gen(), rng.gen()),
        2 => EngineError::MissingEdge(rng.gen(), rng.gen()),
        3 => EngineError::MissingGraph,
        4 => EngineError::NotIndependent(rng.gen(), rng.gen()),
        5 => EngineError::DeadInitial(rng.gen()),
        6 => EngineError::BadK(rng.gen_range(0..100usize)),
        7 => EngineError::BadParameter(PARAMS[rng.gen_range(0..PARAMS.len())]),
        _ => EngineError::Batch {
            index: rng.gen_range(0..10_000usize),
            cause: Box::new(arb_engine_error(rng, depth + 1)),
        },
    }
}

fn arb_name(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(1..24usize);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..8u32) == 0 {
                '_'
            } else {
                (b'a' + rng.gen_range(0..26u32) as u8) as char
            }
        })
        .collect()
}

fn arb_metrics(rng: &mut SmallRng) -> MetricsSnapshot {
    let mut m = MetricsSnapshot {
        version: SNAPSHOT_VERSION,
        events_dropped: rng.gen(),
        ..MetricsSnapshot::default()
    };
    for _ in 0..rng.gen_range(0..6usize) {
        m.counters.push((arb_name(rng), rng.gen()));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        m.gauges.push((arb_name(rng), rng.gen()));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let buckets = (0..rng.gen_range(0..8usize))
            .map(|_| (rng.gen_range(0..NUM_BUCKETS as u32), rng.gen()))
            .collect();
        m.histograms.push((
            arb_name(rng),
            HistogramSnapshot {
                count: rng.gen(),
                sum: rng.gen(),
                max: rng.gen(),
                buckets,
            },
        ));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        m.events.push(Event {
            at_micros: rng.gen(),
            kind: arb_name(rng),
            detail: format!("detail {} \"quoted\"\n", rng.gen_range(0..100u32)),
        });
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every update round-trips bit-exactly.
    #[test]
    fn update_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let u = arb_update(&mut rng);
        let mut buf = Vec::new();
        encode_update(&u, &mut buf);
        prop_assert_eq!(decode_update(&buf).unwrap(), u);
    }

    /// Every delta round-trips, including all seven stats counters.
    #[test]
    fn delta_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = arb_delta(&mut rng);
        let mut buf = Vec::new();
        encode_delta(&d, &mut buf);
        prop_assert_eq!(decode_delta(&buf).unwrap(), d);
    }

    /// Sequenced log entries round-trip (seq + delta).
    #[test]
    fn log_entry_round_trips(seed in 0u64..u64::MAX, seq in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = arb_delta(&mut rng);
        let mut buf = Vec::new();
        encode_log_entry(seq, &d, &mut buf);
        prop_assert_eq!(decode_log_entry(&buf).unwrap(), (seq, d));
    }

    /// Every engine error (including nested batch causes) round-trips.
    #[test]
    fn engine_error_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let e = arb_engine_error(&mut rng, 0);
        let mut buf = Vec::new();
        encode_engine_error(&e, &mut buf);
        prop_assert_eq!(decode_engine_error(&buf).unwrap(), e);
    }

    /// Ticketed verdicts round-trip on both arms.
    #[test]
    fn verdict_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let v: Result<u64, EngineError> = if rng.gen_range(0..2u32) == 0 {
            Ok(rng.gen())
        } else {
            Err(arb_engine_error(&mut rng, 0))
        };
        let mut buf = Vec::new();
        encode_verdict(&v, &mut buf);
        prop_assert_eq!(decode_verdict(&buf).unwrap(), v);
    }

    /// Telemetry snapshots round-trip through the wire codec: the exact
    /// same `MetricsSnapshot` schema serves the in-process API, the
    /// wire call, and the text encoders.
    #[test]
    fn metrics_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = arb_metrics(&mut rng);
        let mut buf = Vec::new();
        encode_metrics(&m, &mut buf);
        prop_assert_eq!(decode_metrics(&buf).unwrap(), m);
    }

    /// Fuzz: decoding any prefix of a valid encoding either succeeds (a
    /// shorter valid value is possible only for the full buffer) or
    /// returns a typed error — never panics. Truncations strictly inside
    /// the value must NOT decode successfully.
    #[test]
    fn truncation_is_a_typed_error(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = arb_delta(&mut rng);
        let mut buf = Vec::new();
        encode_delta(&d, &mut buf);
        for cut in 0..buf.len() {
            match decode_delta(&buf[..cut]) {
                Err(_) => {}
                Ok(v) => {
                    return Err(TestCaseError::fail(format!(
                        "truncation at {cut}/{} decoded as {v:?}",
                        buf.len()
                    )))
                }
            }
        }
        prop_assert_eq!(decode_delta(&buf).unwrap(), d);
    }

    /// Fuzz: arbitrary byte mutations of a valid encoding either decode
    /// to *some* value or fail with a typed error — never a panic, and
    /// never an allocation larger than the buffer could justify (the
    /// codec validates lengths against remaining bytes first).
    #[test]
    fn mutation_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut buf = Vec::new();
        match rng.gen_range(0..4u32) {
            0 => encode_delta(&arb_delta(&mut rng), &mut buf),
            1 => encode_update(&arb_update(&mut rng), &mut buf),
            2 => encode_engine_error(&arb_engine_error(&mut rng, 0), &mut buf),
            _ => encode_metrics(&arb_metrics(&mut rng), &mut buf),
        }
        for _ in 0..rng.gen_range(1..8usize) {
            let i = rng.gen_range(0..buf.len());
            buf[i] = rng.gen_range(0..256u32) as u8;
        }
        let _ = decode_delta(&buf);
        let _ = decode_update(&buf);
        let _ = decode_engine_error(&buf);
        let _ = decode_verdict(&buf);
        let _ = decode_log_entry(&buf);
        let _ = decode_metrics(&buf);
    }

    /// Fuzz: pure garbage decodes to a typed error, never a panic.
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let _ = decode_delta(&buf);
        let _ = decode_update(&buf);
        let _ = decode_engine_error(&buf);
        let _ = decode_verdict(&buf);
        let _ = decode_log_entry(&buf);
        let _ = decode_metrics(&buf);
    }
}

/// A decoder built for version N must refuse version N+1 for *every*
/// value kind — typed, not a misparse.
#[test]
fn newer_versions_are_refused_everywhere() {
    let mut buf = Vec::new();
    encode_update(&Update::RemoveVertex(1), &mut buf);
    let v = u16::from_le_bytes([buf[0], buf[1]]) + 1;
    buf[..2].copy_from_slice(&v.to_le_bytes());
    assert!(matches!(
        decode_update(&buf),
        Err(WireError::UnsupportedVersion { .. })
    ));

    buf.clear();
    encode_verdict(&Ok(7), &mut buf);
    buf[..2].copy_from_slice(&v.to_le_bytes());
    assert!(matches!(
        decode_verdict(&buf),
        Err(WireError::UnsupportedVersion { .. })
    ));

    buf.clear();
    encode_metrics(&MetricsSnapshot::default(), &mut buf);
    buf[..2].copy_from_slice(&v.to_le_bytes());
    assert!(matches!(
        decode_metrics(&buf),
        Err(WireError::UnsupportedVersion { .. })
    ));
}
