//! Pin: a subscriber dropped for missing its write timeout must take
//! its `net_sub_lag_<id>` gauge with it, on every drop path. The
//! per-subscriber gauges live in the fronted service's own registry,
//! so the final sweep reads the server's `metrics()` — the global
//! registry never holds them, and sweeping it would pass vacuously.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_graph::Update;
use dynamis_net::{NetBackend, NetClient, NetConfig, NetError, NetServer};
use dynamis_serve::{MisService, ServeConfig};
use std::time::{Duration, Instant};

#[test]
fn write_timeout_drop_unregisters_the_subscriber_lag_gauge() {
    let g = chung_lu(2_000, 2.4, 6.0, 41);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig {
            // Aggressive straggler reseeds keep full-checkpoint frames
            // flowing at the stuck sockets, filling their kernel
            // buffers fast; then the short write timeout drops them.
            write_timeout: Duration::from_millis(50),
            sub_batch: 1,
            straggler_rounds: 2,
            hubs: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Three subscribers that never read a byte, spread across hubs.
    let stuck: Vec<_> = (0..3)
        .map(|_| NetClient::connect(&addr).unwrap().subscribe(0).unwrap())
        .collect();

    // A self-sustaining pump: toggle 128 disjoint edges on and off so
    // the log head never stops moving (and the straggler reseeds never
    // stop) until every stuck subscriber has been timed out.
    let mut writer = NetClient::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut insert = true;
    for pump in 0u64.. {
        // A full snapshot costs several pumps' worth of time in a debug
        // build, so check the subscription count every 16th pump.
        if pump % 16 == 0 {
            let subs = writer
                .metrics()
                .unwrap()
                .gauge("net_subscriptions")
                .unwrap();
            if subs == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{subs} stuck subscribers were never dropped"
            );
        }
        let batch: Vec<Update> = (0..128u32)
            .map(|i| {
                if insert {
                    Update::InsertEdge(2 * i, 2 * i + 1)
                } else {
                    Update::RemoveEdge(2 * i, 2 * i + 1)
                }
            })
            .collect();
        insert = !insert;
        match writer.apply_batch(batch) {
            Ok(_) => {}
            Err(NetError::Busy { .. }) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("pump failed: {e}"),
        }
    }
    drop(stuck);

    // Every per-subscriber gauge must be gone; only the aggregate
    // `net_sub_lag_max` / `net_sub_lag_mean` gauges may remain.
    let snap = writer.metrics().unwrap();
    let leaked: Vec<_> = snap
        .gauges
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("net_sub_lag_")
                .is_some_and(|suffix| suffix.parse::<u64>().is_ok())
        })
        .collect();
    assert!(
        leaked.is_empty(),
        "dropped subscribers leaked lag gauges: {leaked:?}"
    );

    handle.shutdown();
    service.shutdown();
}
