//! Network scale-out bench: the hub worker pool, filtered
//! subscriptions, and the snapshot cold-start, measured end to end
//! over loopback against a child-process server (so client and server
//! file-descriptor budgets stay separate, as in `net.rs`).
//!
//! Three phases:
//!
//! - **fan-out** — the same subscriber-heavy load against 1 hub and
//!   against 4 hubs; records aggregate delivery throughput
//!   (subscriber events per second). On a multi-core box the 4-hub
//!   run must beat the single hub; on one core the numbers are
//!   recorded but the ordering is not asserted.
//! - **filtered** — every odd subscriber takes `shard:0/2` and every
//!   subscriber cold-starts via bootstrap; asserts zero out-of-filter
//!   deliveries and full stream integrity.
//! - **cold-start** — a mirror seeded by `bootstrap` and a mirror
//!   replayed from sequence 0 must both equal the server snapshot at
//!   quiesce (history deeper than the log window, so the bootstrap
//!   base is non-zero).
//!
//! Writes `BENCH_PR10.json` (override with `DYNAMIS_BENCH_OUT`);
//! honors `DYNAMIS_FAST=1`.

use dynamis_core::EngineBuilder;
use dynamis_gen::powerlaw::chung_lu;
use dynamis_graph::Update;
use dynamis_net::{
    load, LoadConfig, NetBackend, NetClient, NetConfig, NetError, NetServer, RemoteMirror,
    SubEvent, SubFilter,
};
use dynamis_serve::{MisService, ServeConfig};
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Graph-model constants shared by parent and child.
const BETA: f64 = 2.4;
const AVG_DEGREE: f64 = 8.0;
const GRAPH_SEED: u64 = 83;

/// The child role: build the graph, serve it with the requested hub
/// count, announce `LISTENING <addr>`, run until stdin closes.
fn child_serve(n: usize, hubs: usize) -> ! {
    let base = chung_lu(n, BETA, AVG_DEGREE, GRAPH_SEED);
    let (service, _reader) =
        MisService::spawn(EngineBuilder::on(base).k(2), ServeConfig::default())
            .expect("engine construction");
    let handle = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig {
            hubs,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    println!("LISTENING {}", handle.local_addr());
    std::io::stdout().flush().expect("announce address");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.shutdown();
    service.shutdown();
    std::process::exit(0);
}

/// A running child server plus the handle needed to stop it cleanly.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(n: usize, hubs: usize) -> Server {
        let exe = std::env::current_exe().expect("own path");
        let mut child = Command::new(exe)
            .env("DYNAMIS_NET_CHILD", n.to_string())
            .env("DYNAMIS_NET_HUBS", hubs.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn server child");
        let mut out = BufReader::new(child.stdout.take().expect("child stdout piped"));
        let addr = {
            let mut line = String::new();
            loop {
                line.clear();
                if out.read_line(&mut line).expect("child announces") == 0 {
                    panic!("server child exited before announcing its address");
                }
                if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
                    break rest.to_string();
                }
            }
        };
        Server { child, addr }
    }

    fn stop(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("child exit status");
        assert!(status.success(), "server child did not shut down cleanly");
    }
}

/// Applies subscription events until the mirror reaches `target`.
fn drain_to(sub: &mut dynamis_net::Subscription, mirror: &mut RemoteMirror, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while mirror.seq() < target {
        assert!(
            Instant::now() < deadline,
            "drain timed out at seq {}",
            mirror.seq()
        );
        match sub.next_event() {
            Ok(Some(ev)) => mirror.apply_event(&ev).unwrap(),
            Ok(None) => {}
            Err(e) => panic!("subscription failed at seq {}: {e}", mirror.seq()),
        }
    }
}

fn main() {
    if let Ok(v) = std::env::var("DYNAMIS_NET_CHILD") {
        let hubs = std::env::var("DYNAMIS_NET_HUBS")
            .ok()
            .and_then(|h| h.parse().ok())
            .unwrap_or(1);
        child_serve(
            v.parse().expect("DYNAMIS_NET_CHILD carries the graph size"),
            hubs,
        );
    }

    let fast = dynamis_bench::fast_mode();
    let (n, subscribers, writers, updates) = if fast {
        (2_000, 300, 2, 2_000)
    } else {
        (10_000, 4_000, 4, 10_000)
    };
    let cores = thread::available_parallelism().map_or(1, |c| c.get());
    eprintln!(
        "net_scale: {subscribers} subscribers + {writers} writers × {updates} updates \
         against n = {n} on {cores} cores"
    );

    // ---- Phase A: fan-out, 1 hub vs 4 hubs -------------------------
    let mut fanout = Vec::new();
    for hubs in [1usize, 4] {
        let server = Server::spawn(n, hubs);
        let cfg = LoadConfig {
            addr: server.addr.clone(),
            subscribers,
            writers,
            updates,
            vertices: n as u32,
            batch: 16,
            seed: 5150 + hubs as u64,
            ..LoadConfig::default()
        };
        let t = Instant::now();
        let report = load::run(&cfg).expect("fan-out load run");
        let secs = t.elapsed().as_secs_f64();
        server.stop();
        assert_eq!(report.gaps, 0, "hubs={hubs}: sequence gap");
        assert_eq!(report.lost_deltas, 0, "hubs={hubs}: lost deltas");
        assert_eq!(report.mirror_errors, 0, "hubs={hubs}: mirror desync");
        assert!(report.verified_mirrors > 0, "hubs={hubs}: nothing verified");
        let delivery = report.sub_events as f64 / secs;
        eprintln!(
            "net_scale: hubs={hubs}: {} subscriber events in {secs:.2}s = {delivery:.0}/s",
            report.sub_events
        );
        fanout.push((hubs, secs, report.sub_events, delivery, report.to_json()));
    }
    let single = fanout[0].3;
    let multi = fanout[1].3;
    if cores >= 2 {
        assert!(
            multi > single,
            "4 hubs must out-deliver 1 hub on {cores} cores ({multi:.0}/s vs {single:.0}/s)"
        );
    } else {
        eprintln!(
            "net_scale: single core — recording fan-out numbers without asserting the ordering \
             ({multi:.0}/s vs {single:.0}/s)"
        );
    }

    // ---- Phase B: filtered subscribers, bootstrap cold-start -------
    let server = Server::spawn(n, 2);
    let cfg = LoadConfig {
        addr: server.addr.clone(),
        subscribers,
        writers,
        updates,
        vertices: n as u32,
        batch: 16,
        seed: 6021,
        filter: SubFilter::Shard { id: 0, of: 2 },
        bootstrap: true,
    };
    let t = Instant::now();
    let filtered = load::run(&cfg).expect("filtered load run");
    let filtered_secs = t.elapsed().as_secs_f64();
    server.stop();
    assert_eq!(filtered.gaps, 0, "filtered: sequence gap");
    assert_eq!(filtered.lost_deltas, 0, "filtered: lost deltas");
    assert_eq!(filtered.mirror_errors, 0, "filtered: mirror desync");
    assert_eq!(
        filtered.out_of_filter, 0,
        "a filtered subscriber received an out-of-filter vertex"
    );
    assert!(filtered.filtered_subscribers > 0, "nobody was filtered");
    assert!(filtered.bootstraps > 0, "nobody cold-started");
    assert!(filtered.verified_mirrors > 0, "filtered: nothing verified");
    eprintln!(
        "net_scale: filtered: {} filtered subscribers, {} bootstraps, 0 out-of-filter",
        filtered.filtered_subscribers, filtered.bootstraps
    );

    // ---- Phase C: cold-start equality ------------------------------
    // Deep history (head beyond the log window) so the bootstrap base
    // is non-zero, then: bootstrap-seeded mirror ≡ from-0 mirror ≡
    // server snapshot.
    let n_c = if fast { 1_000 } else { 4_000 };
    let deep = 1_200u64; // ServeConfig::default().log_window is 1024
    let server = Server::spawn(n_c, 1);
    // Random edge toggles, applied singly (one broadcast log entry per
    // accepted update) until the head outruns the retained window and
    // the base checkpoint moves. Rejections (duplicate insert, missing
    // remove) are expected and tolerated.
    let mut writer = NetClient::connect(&server.addr).unwrap();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as u32
    };
    let head = {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            for _ in 0..256 {
                let (a, b) = (step() % n_c as u32, step() % n_c as u32);
                if a == b {
                    continue;
                }
                let u = if step() & 1 == 0 {
                    Update::InsertEdge(a, b)
                } else {
                    Update::RemoveEdge(a, b)
                };
                loop {
                    match writer.apply(u.clone()) {
                        Ok(_) | Err(NetError::Rejected(_)) => break,
                        Err(NetError::Busy { .. }) => thread::sleep(Duration::from_millis(2)),
                        Err(e) => panic!("cold-start history write failed: {e}"),
                    }
                }
            }
            let m = writer.metrics().unwrap();
            let head = m.gauge("serve_head_seq").unwrap_or(0);
            if m.gauge("serve_queue_depth") == Some(0) && head > deep {
                break head;
            }
            assert!(
                Instant::now() < deadline,
                "history never outgrew the window (head {head})"
            );
        }
    };

    let mut cold = NetClient::connect(&server.addr).unwrap();
    let (base_seq, members) = cold.bootstrap().expect("bootstrap stream");
    assert!(
        base_seq > 0,
        "deep history (head {head}) must yield a non-zero base"
    );
    let mut boot_mirror = RemoteMirror::new();
    boot_mirror
        .apply_event(&SubEvent::Checkpoint {
            seq: base_seq,
            solution: members,
        })
        .unwrap();
    let mut boot_sub = cold.subscribe(base_seq).unwrap();
    boot_sub
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    drain_to(&mut boot_sub, &mut boot_mirror, head);

    let mut zero_sub = NetClient::connect(&server.addr)
        .unwrap()
        .subscribe(0)
        .unwrap();
    zero_sub
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut zero_mirror = RemoteMirror::new();
    drain_to(&mut zero_sub, &mut zero_mirror, head);

    let (snap_seq, snap) = writer.snapshot().unwrap();
    assert_eq!(snap_seq, head);
    assert_eq!(
        boot_mirror.solution(),
        snap,
        "bootstrap-seeded mirror diverged from the snapshot"
    );
    assert_eq!(
        zero_mirror.solution(),
        snap,
        "from-zero mirror diverged from the snapshot"
    );
    server.stop();
    eprintln!(
        "net_scale: cold-start: base seq {base_seq}, head {head}, both mirrors ≡ snapshot \
         (|I| = {})",
        snap.len()
    );

    // ---- Report ----------------------------------------------------
    let mut table = dynamis_bench::Table::new(vec![
        "phase",
        "hubs",
        "events",
        "secs",
        "delivery/s",
        "out-of-filter",
    ]);
    for (hubs, secs, events, delivery, _) in &fanout {
        table.row(vec![
            "fan-out".into(),
            hubs.to_string(),
            events.to_string(),
            format!("{secs:.2}"),
            format!("{delivery:.0}"),
            "-".into(),
        ]);
    }
    table.row(vec![
        "filtered".into(),
        "2".into(),
        filtered.sub_events.to_string(),
        format!("{filtered_secs:.2}"),
        format!("{:.0}", filtered.sub_events as f64 / filtered_secs),
        filtered.out_of_filter.to_string(),
    ]);
    table.print();

    let fanout_json: Vec<String> = fanout
        .iter()
        .map(|(hubs, secs, events, delivery, load_json)| {
            format!(
                "{{\"hubs\": {hubs}, \"secs\": {secs:.3}, \"sub_events\": {events}, \
                 \"delivery_per_s\": {delivery:.1}, \"load\": {load_json}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"net_scale\",\n  \"workload\": {{\"model\": \"chung_lu\", \
         \"n\": {n}, \"beta\": {BETA}, \"avg_degree\": {AVG_DEGREE}, \"batch\": 16, \
         \"subscribers\": {subscribers}, \"writers\": {writers}, \"updates\": {updates}, \
         \"cores\": {cores}, \"fast\": {fast}}},\n  \
         \"fanout\": [{fanout}],\n  \
         \"fanout_asserted\": {asserted},\n  \
         \"filtered\": {{\"secs\": {filtered_secs:.3}, \"load\": {filtered_json}}},\n  \
         \"coldstart\": {{\"n\": {n_c}, \"base_seq\": {base_seq}, \"head\": {head}, \
         \"mirrors_equal_snapshot\": true}}\n}}\n",
        fanout = fanout_json.join(", "),
        asserted = cores >= 2,
        filtered_json = filtered.to_json(),
    );
    let out = std::env::var("DYNAMIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR10.json".into());
    std::fs::write(&out, json).expect("write bench report");
    eprintln!("net_scale: report written to {out}");
}
