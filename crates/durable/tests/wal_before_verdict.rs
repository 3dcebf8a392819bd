//! WAL before verdict, through the service: under
//! [`SyncPolicy::Always`], an `Ok` verdict means the update's record is
//! already on storage.
//!
//! Submissions here go one at a time, so each finds the service idle
//! and is applied on the submitting thread: its verdict is settled
//! before `submit` returns. At that moment a recovery scan of the
//! storage must already find the update as the newest record.

use dynamis_core::EngineBuilder;
use dynamis_durable::{prepare, scan, DurableOptions, MemStorage, SyncPolicy, WalStorage};
use dynamis_gen::uniform::gnm;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_serve::{MisService, ServeConfig};
use std::sync::Arc;

#[test]
fn idle_submission_is_on_storage_when_submit_returns() {
    // The test keeps one handle to the in-memory directory; the service
    // writes through a clone of it.
    let mem = MemStorage::new();
    let storage: Arc<dyn WalStorage> = Arc::new(mem.clone());
    let opts = DurableOptions {
        sync: SyncPolicy::Always,
        ..DurableOptions::default()
    };
    let prepared = prepare(storage, 2, opts).unwrap();
    let cfg = ServeConfig {
        first_seq: prepared.first_broadcast_seq(),
        ..ServeConfig::default()
    };
    let g = gnm(60, 150, 11);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 4).take_updates(300);
    let (service, mut reader) = MisService::spawn_with(
        move || {
            prepared
                .attach(EngineBuilder::on(g).k(2).build()?)
                .map(|l| Box::new(l) as _)
                .map_err(|e| e.into_engine_error())
        },
        cfg,
    )
    .unwrap();

    let mut last_seq = 0;
    for (accepted, u) in (1u64..).zip(ups) {
        let ticket = service.submit(u.clone()).unwrap();
        let found = scan(&mem, Some(2), None).unwrap();
        assert_eq!(found.recovered_seq, accepted, "record of {u:?} missing");
        assert_eq!(found.tail.last(), Some(&u));
        let seq = ticket.wait().unwrap();
        assert!(seq >= last_seq, "sequence numbers went back");
        last_seq = seq;
    }
    let report = service.shutdown();
    assert_eq!(reader.snapshot(), report.solution);
}
