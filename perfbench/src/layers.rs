//! The layer replay of a traced run: the identical request sequence
//! through four stacks at once, each one layer taller than the last,
//!
//! - L0: the core engine alone (`try_apply_batch` + `drain_delta`, as
//!   the service's writer does per round),
//! - L1: L0 inside `MisService` (`submit*(..).wait()`),
//! - L2: L1 with the engine wrapped in the WAL (`Logged`),
//! - L3: L2 behind `NetServer`, driven by a `NetClient`,
//!
//! interleaved in chunks of requests with the level order flipped on
//! every chunk, so host noise lands on all four alike. The difference
//! between adjacent levels on the same chunks is one layer's marginal
//! cost. The subscriber and reader are left out: the hub is idle here.
//! Stage timing is on during L0 requests only, to count the engine's
//! swap-search time.

use crate::stack::{self, Scratch, K};
use crate::{Inputs, Workload};
use dynamis_core::{DyTwoSwap, DynamicMis, EngineBuilder, EngineStats};
use dynamis_graph::Update;
use dynamis_net::NetClient;
use dynamis_serve::{MisService, ReaderHandle, ServeConfig, ServiceHandle};
use std::hint::black_box;
use std::time::Instant;

/// Updates per interleaving chunk: a few milliseconds of work per
/// level, far finer than the host's interference bursts.
const CHUNK_UPDATES: usize = 2048;

/// What the replay measured.
pub struct LayerCosts {
    /// Seconds each level spent on the whole request sequence.
    pub level_s: [f64; 4],
    pub updates: u64,
    pub requests: u64,
    /// `EngineBuilder::build` of the L0 engine.
    pub build_s: f64,
    /// `prepare` + `Prepared::attach` of the L2 WAL.
    pub prepare_s: f64,
    pub heap_bytes: usize,
    pub stats: EngineStats,
    /// Swap-search nanoseconds the L0 engine recorded (stage timing is
    /// on during L0 requests only; the batch path times its one drain
    /// per request unsampled).
    pub swap_search_ns: u64,
    /// `ReaderHandle::contains` beside L1: total seconds and calls.
    pub query_s: f64,
    pub queries: u64,
    /// Whether all four levels ended on the same solution.
    pub agree: bool,
    pub solution_len: usize,
}

fn submit(service: &ServiceHandle, req: &[Update]) -> Result<(), String> {
    let verdicts = if req.len() == 1 {
        vec![service
            .submit(req[0].clone())
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())]
    } else {
        service
            .submit_batch(req.to_vec())
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|v| v.map_err(|e| e.to_string()))
            .collect()
    };
    verdicts.into_iter().try_for_each(|v| v.map(|_| ()))
}

fn send(client: &mut NetClient, req: &[Update]) -> Result<(), String> {
    if req.len() == 1 {
        client
            .apply(req[0].clone())
            .map(|_| ())
            .map_err(|e| e.to_string())
    } else {
        let verdicts = client
            .apply_batch(req.to_vec())
            .map_err(|e| e.to_string())?;
        verdicts
            .into_iter()
            .try_for_each(|v| v.map(|_| ()).map_err(|e| e.to_string()))
    }
}

pub fn replay(wl: &Workload, inputs: &Inputs, scratch: &mut Scratch) -> Result<LayerCosts, String> {
    // L0.
    let graph = inputs.base.clone();
    let t = Instant::now();
    let mut l0: DyTwoSwap = EngineBuilder::on(graph)
        .k(K)
        .build_as()
        .map_err(|e| format!("L0 build: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let _ = l0.drain_delta();

    // L1.
    let (l1, mut l1_reader) = MisService::spawn(
        EngineBuilder::on(inputs.base.clone()).k(K),
        ServeConfig::default(),
    )
    .map_err(|e| format!("L1 spawn: {e}"))?;

    // L2: time `prepare` here and `attach` inside the writer thread.
    let graph = inputs.base.clone();
    let dir = scratch.fresh_dir().map_err(|e| e.to_string())?;
    let (attach_tx, attach_rx) = std::sync::mpsc::channel();
    let t = Instant::now();
    let (factory, cfg) = stack::durable_engine(graph, &dir, Some(attach_tx))?;
    let prepare_only = t.elapsed().as_secs_f64();
    let (l2, _reader) =
        MisService::spawn_with(factory, cfg).map_err(|e| format!("L2 spawn: {e}"))?;
    let prepare_s = prepare_only + attach_rx.recv().unwrap_or(0.0);

    // L3.
    let dir = scratch.fresh_dir().map_err(|e| e.to_string())?;
    let (l3, mut client, _) = stack::setup(inputs.base.clone(), &dir)?;

    let swap_hist = dynamis_obs::global().histogram("core_swap_search_ns");
    let swap_before = swap_hist.snapshot().sum;
    let mut level_s = [0.0f64; 4];
    let (mut query_s, mut queries) = (0.0f64, 0u64);
    let mut query_id = 0u64;
    let requests: Vec<&[Update]> = inputs.updates.chunks(wl.batch).collect();
    let chunk_reqs = (CHUNK_UPDATES / wl.batch).clamp(1, 256);
    for (ci, chunk) in requests.chunks(chunk_reqs).enumerate() {
        let order: [usize; 4] = if ci % 2 == 0 {
            [0, 1, 2, 3]
        } else {
            [3, 2, 1, 0]
        };
        for level in order {
            dynamis_obs::set_enabled(level == 0);
            for req in chunk {
                let t = Instant::now();
                match level {
                    0 => {
                        l0.try_apply_batch(req)
                            .map_err(|e| format!("L0 rejected an update: {e}"))?;
                        black_box(l0.drain_delta());
                    }
                    1 => submit(&l1, req).map_err(|e| format!("L1: {e}"))?,
                    2 => submit(&l2, req).map_err(|e| format!("L2: {e}"))?,
                    _ => send(&mut client, req).map_err(|e| format!("L3: {e}"))?,
                }
                level_s[level] += t.elapsed().as_secs_f64();
                if level == 1 && wl.side == crate::Side::Reader {
                    let (s, q) = query_beside(&mut l1_reader, wl.n as u64, &mut query_id);
                    query_s += s;
                    queries += q;
                }
            }
        }
    }

    dynamis_obs::set_enabled(false);
    let swap_search_ns = swap_hist.snapshot().sum - swap_before;
    let s0 = l0.solution();
    let (_, snap) = client.snapshot().map_err(|e| format!("L3 snapshot: {e}"))?;
    drop(client);
    let s3 = l3.shutdown().solution;
    let s2 = l2.shutdown().solution;
    let s1 = l1.shutdown().solution;
    let agree = s0 == s1 && s1 == s2 && s2 == s3 && s3 == snap;
    Ok(LayerCosts {
        level_s,
        updates: inputs.updates.len() as u64,
        requests: requests.len() as u64,
        build_s,
        prepare_s,
        heap_bytes: l0.heap_bytes(),
        stats: l0.stats(),
        swap_search_ns,
        query_s,
        queries,
        agree,
        solution_len: s0.len(),
    })
}

/// One `ReaderHandle::contains` on a pseudo-random id below `n`, timed.
fn query_beside(reader: &mut ReaderHandle, n: u64, id: &mut u64) -> (f64, u64) {
    *id = id
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let v = ((*id >> 33) % n) as u32;
    let t = Instant::now();
    black_box(reader.contains(v));
    (t.elapsed().as_secs_f64(), 1)
}
