//! Pin: two servers in one process keep their per-subscriber lag
//! gauges apart. Each `net_sub_lag_<id>` lives in the registry of the
//! service its server fronts, so dropping one server's subscriber
//! unregisters that server's gauge and never the other's.

use dynamis_core::EngineBuilder;
use dynamis_graph::{DynamicGraph, Update};
use dynamis_net::{NetBackend, NetClient, NetConfig, NetServer, NetServerHandle, RemoteMirror};
use dynamis_obs::MetricsSnapshot;
use dynamis_serve::{MisService, ServeConfig, ServiceHandle};
use std::time::{Duration, Instant};

fn serve() -> (NetServerHandle, ServiceHandle, String) {
    // Vertices 2 and 3 start isolated (both in the solution), so every
    // toggle of the edge between them changes the solution.
    let g = DynamicGraph::from_edges(4, &[(0, 1)]);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    (handle, service, addr)
}

/// The per-subscriber lag gauges (not the `_max` / `_mean` aggregates).
fn sub_gauges(m: &MetricsSnapshot) -> Vec<(String, u64)> {
    m.gauges
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("net_sub_lag_")
                .is_some_and(|id| id.parse::<u64>().is_ok())
        })
        .cloned()
        .collect()
}

/// Polls the server's metrics until `done` holds.
fn wait_for(client: &mut NetClient, done: impl Fn(&MetricsSnapshot) -> bool) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = client.metrics().unwrap();
        if done(&m) {
            return m;
        }
        assert!(Instant::now() < deadline, "condition never held: {m:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn dropping_one_servers_subscriber_keeps_the_others_lag_gauge() {
    let (handle_a, service_a, addr_a) = serve();
    let (handle_b, service_b, addr_b) = serve();
    let sub_a = NetClient::connect(&addr_a).unwrap().subscribe(0).unwrap();
    let mut sub_b = NetClient::connect(&addr_b).unwrap().subscribe(0).unwrap();
    let mut a = NetClient::connect(&addr_a).unwrap();
    let mut b = NetClient::connect(&addr_b).unwrap();

    // B's subscriber mirrors B up to its head.
    let head_b = b.apply(Update::InsertEdge(2, 3)).unwrap();
    let mut mirror_b = RemoteMirror::new();
    while mirror_b.seq() < head_b {
        let ev = sub_b.next_event().unwrap().expect("blocking read");
        mirror_b.apply_event(&ev).unwrap();
    }
    let lag_b = head_b - mirror_b.seq();
    let gauges_b = sub_gauges(&wait_for(&mut b, |m| {
        sub_gauges(m).len() == 1 && sub_gauges(m)[0].1 == lag_b
    }));
    let gauges_a = sub_gauges(&wait_for(&mut a, |m| sub_gauges(m).len() == 1));
    assert_ne!(gauges_a[0].0, gauges_b[0].0, "ids are process-wide");

    // Drop A's subscriber and pump A until its hub writes into the
    // closed socket and drops the subscription.
    drop(sub_a);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut insert = true;
    while !sub_gauges(&a.metrics().unwrap()).is_empty() {
        assert!(
            Instant::now() < deadline,
            "A's subscriber was never dropped"
        );
        let u = if insert {
            Update::InsertEdge(2, 3)
        } else {
            Update::RemoveEdge(2, 3)
        };
        insert = !insert;
        a.apply(u).unwrap();
    }
    assert_eq!(a.metrics().unwrap().gauge("net_subscriptions"), Some(0));
    assert_eq!(sub_gauges(&b.metrics().unwrap()), gauges_b);

    drop(sub_b);
    handle_a.shutdown();
    handle_b.shutdown();
    service_a.shutdown();
    service_b.shutdown();
}
