//! Pins that subscription hubs are woken by events, not by a timer: an
//! idle hub parks, a hub with no subscriber ignores publishes, no
//! publish is ever lost between a hub's last check and its park, and
//! shutdown wakes hubs that never had work.
//!
//! Round counts come from the `net_hub_rounds_total` counter (one
//! increment per hub loop iteration). The bounds leave room for a few
//! spurious park wake-ups; a slow host can only make fewer rounds.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::Update;
use dynamis_net::{
    NetBackend, NetClient, NetConfig, NetError, NetServer, NetServerHandle, RemoteMirror,
    Subscription,
};
use dynamis_serve::{MisService, ServeConfig, ServiceHandle};
use std::sync::mpsc;
use std::time::Duration;

/// A service on a small power-law graph, `n_updates` valid updates for
/// it (in order), and a server with `hubs` hub workers in front.
fn serve(hubs: usize, n_updates: usize) -> (ServiceHandle, NetServerHandle, String, Vec<Update>) {
    let g = chung_lu(2_000, 2.4, 6.0, 9);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 31).take_updates(n_updates);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(g).k(2), ServeConfig::default()).unwrap();
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig {
            hubs,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    (service, handle, addr, ups)
}

fn hub_rounds(service: &ServiceHandle) -> u64 {
    service
        .metrics()
        .counter("net_hub_rounds_total")
        .expect("net_hub_rounds_total is registered at bind")
}

/// Applies subscription events until `mirror` reaches `target`. Every
/// read may block up to the subscription's read timeout; a timeout
/// means the hub never delivered, which only a lost wake-up can cause.
fn await_seq(sub: &mut Subscription, mirror: &mut RemoteMirror, target: u64) {
    while mirror.seq() < target {
        match sub.next_event() {
            Ok(Some(ev)) => mirror.apply_event(&ev).unwrap(),
            Ok(None) => panic!(
                "seq {target} not delivered within the read timeout (mirror at {}): lost wake-up",
                mirror.seq()
            ),
            Err(e) => panic!("subscription failed at seq {}: {e}", mirror.seq()),
        }
    }
}

#[test]
fn idle_hub_with_caught_up_subscriber_parks() {
    let (service, handle, addr, ups) = serve(1, 20);
    let mut sub = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut mirror = RemoteMirror::new();
    let mut head = 0;
    for u in ups {
        head = service.submit(u).unwrap().wait().unwrap();
    }
    await_seq(&mut sub, &mut mirror, head);

    let before = hub_rounds(&service);
    std::thread::sleep(Duration::from_millis(200));
    let rounds = hub_rounds(&service) - before;
    assert!(
        rounds <= 3,
        "an idle hub ran {rounds} rounds in 200 ms; a timer-driven hub runs ~200"
    );

    handle.shutdown();
    service.shutdown();
}

#[test]
fn hub_without_subscribers_ignores_publishes() {
    let hubs = 2;
    let (service, handle, _addr, ups) = serve(hubs, 1_000);
    let before = hub_rounds(&service);
    for u in ups {
        service.submit(u).unwrap().wait().unwrap();
    }
    let rounds = hub_rounds(&service) - before;
    assert!(
        rounds <= 3 * hubs as u64,
        "{hubs} subscriber-less hubs ran {rounds} rounds over 1000 publishes"
    );

    handle.shutdown();
    service.shutdown();
}

/// 2,000 sequential updates; after each verdict every subscriber (one
/// per hub) blocks until that verdict's seq arrives.
fn every_publish_wakes_the_hubs(hubs: usize) {
    let (service, handle, addr, ups) = serve(hubs, 2_000);
    let mut subs: Vec<(Subscription, RemoteMirror)> = (0..hubs)
        .map(|_| {
            let sub = NetClient::connect(&addr).unwrap().subscribe(0).unwrap();
            sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            (sub, RemoteMirror::new())
        })
        .collect();
    let mut writer = NetClient::connect(&addr).unwrap();
    let mut delivered = 0;
    for u in ups {
        let seq = match writer.apply(u) {
            Ok(seq) => seq,
            Err(NetError::Rejected(_)) => continue,
            Err(e) => panic!("transport failure: {e}"),
        };
        for (sub, mirror) in &mut subs {
            await_seq(sub, mirror, seq);
        }
        delivered += 1;
    }
    assert_eq!(delivered, 2_000, "the seeded stream is valid in order");

    drop(writer);
    handle.shutdown();
    service.shutdown();
}

#[test]
fn no_publish_is_lost_with_one_hub() {
    every_publish_wakes_the_hubs(1);
}

#[test]
fn no_publish_is_lost_with_four_hubs() {
    every_publish_wakes_the_hubs(4);
}

#[test]
fn shutdown_wakes_hubs_that_never_had_a_subscriber() {
    let (service, handle, addr, ups) = serve(4, 10);
    let mut writer = NetClient::connect(&addr).unwrap();
    for u in ups {
        writer.apply(u).unwrap();
    }
    drop(writer);
    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown of a server with idle hubs never returned");
    stopper.join().unwrap();
    service.shutdown();
}
