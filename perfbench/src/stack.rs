//! The system under test, assembled in-process the way
//! `dynamis net-serve --data-dir` assembles it: `prepare` the WAL
//! directory, build the k = 2 engine inside the service's writer
//! thread, wrap it in the WAL (`Prepared::attach`), spawn `MisService`,
//! and front it with one `NetServer` on loopback.

use dynamis_core::{DynamicMis, EngineBuilder};
use dynamis_durable::{prepare, DurableOptions, FileStorage, WalStorage};
use dynamis_graph::DynamicGraph;
use dynamis_net::{NetBackend, NetClient, NetConfig, NetServer, NetServerHandle};
use dynamis_serve::{MisService, ServeConfig, ServiceHandle, ServiceReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The swap depth `net-serve` serves by default (`DyTwoSwap`).
pub const K: usize = 2;

/// A running stack: service, WAL underneath, network server in front.
pub struct Stack {
    pub service: ServiceHandle,
    pub server: NetServerHandle,
}

/// Where the WAL directories of one run live: a per-process directory
/// under `.bench_build/perfbench` in the working directory, removed
/// when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let root = Path::new(".bench_build")
            .join("perfbench")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, empty directory for one WAL.
    pub fn fresh_dir(&mut self) -> std::io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("wal-{}", self.next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Opens `dir` as a WAL directory and returns a factory that builds the
/// engine over `graph` and wraps it in the WAL, plus the service
/// config whose `first_seq` re-bases the broadcast log past the
/// recovered prefix (1 on a fresh directory). `attach_s` receives the
/// seconds `Prepared::attach` took (base checkpoint included).
#[allow(clippy::type_complexity)]
pub fn durable_engine(
    graph: DynamicGraph,
    dir: &Path,
    attach_s: Option<std::sync::mpsc::Sender<f64>>,
) -> Result<
    (
        impl FnOnce() -> Result<Box<dyn DynamicMis>, dynamis_core::EngineError> + Send + 'static,
        ServeConfig,
    ),
    String,
> {
    let storage: Arc<dyn WalStorage> =
        Arc::new(FileStorage::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?);
    // The library defaults: group commit (`SyncPolicy::Group`), one
    // stream, a checkpoint every 128Ki accepted updates.
    let mut prepared = prepare(storage, K as u32, DurableOptions::default())
        .map_err(|e| format!("prepare: {e}"))?;
    let cfg = ServeConfig {
        first_seq: prepared.first_broadcast_seq(),
        ..ServeConfig::default()
    };
    let builder = prepared.resume_builder(EngineBuilder::on(graph).k(K));
    let factory = move || {
        let engine = builder.build()?;
        let t = Instant::now();
        let logged = prepared.attach(engine).map_err(|e| e.into_engine_error())?;
        if let Some(tx) = attach_s {
            let _ = tx.send(t.elapsed().as_secs_f64());
        }
        Ok(Box::new(logged) as Box<dyn DynamicMis>)
    };
    Ok((factory, cfg))
}

/// Builds a stack over `graph` (moved in, so the caller clones outside
/// any timer) with its WAL in `dir`, and completes the first `Hello`.
/// Returns the stack, the handshaken client, and the seconds from the
/// WAL `prepare` to the `Hello` reply — the set-up time a user of
/// `net-serve` waits before the first request.
pub fn setup(graph: DynamicGraph, dir: &Path) -> Result<(Stack, NetClient, f64), String> {
    let t = Instant::now();
    let (factory, cfg) = durable_engine(graph, dir, None)?;
    let (service, _reader) =
        MisService::spawn_with(factory, cfg).map_err(|e| format!("spawning service: {e}"))?;
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::single(&service),
        NetConfig::default(),
    )
    .map_err(|e| format!("binding loopback: {e}"))?;
    let client =
        NetClient::connect(server.local_addr()).map_err(|e| format!("first Hello: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((Stack { service, server }, client, secs))
}

impl Stack {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server (sessions drained, subscribers flushed), then
    /// the service; returns the service's final report. Every client
    /// must be dropped first.
    pub fn shutdown(self) -> ServiceReport {
        self.server.shutdown();
        self.service.shutdown()
    }
}

/// Bytes of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
