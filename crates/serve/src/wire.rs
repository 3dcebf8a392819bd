//! Versioned binary codec for everything the serving layer broadcasts:
//! [`SolutionDelta`]s, sequenced log entries, [`Update`]s,
//! [`EngineError`]s, and [`MetricsSnapshot`]s.
//!
//! This is the *value* layer of the network protocol (`dynamis-net`
//! supplies the framing and the request/response vocabulary on top).
//! The encoding is deliberately boring: little-endian fixed-width
//! integers, length-prefixed lists, one leading [`WIRE_VERSION`] word
//! per top-level value. Three properties are load-bearing:
//!
//! * **Decoding never panics and never over-allocates.** Every decode
//!   path returns a typed [`WireError`]; list lengths are validated
//!   against the bytes actually present *before* any allocation, so a
//!   frame claiming four billion elements fails fast instead of
//!   exhausting memory. The fuzz-style proptests in
//!   `crates/serve/tests/wire.rs` pin this for arbitrary mutations and
//!   truncations.
//! * **A newer version is a typed error, not a guess.** Each top-level
//!   value leads with the version it was encoded under; a decoder that
//!   sees a version above its own [`WIRE_VERSION`] reports
//!   [`WireError::UnsupportedVersion`] instead of misparsing bytes.
//! * **Error tags are the stable `code()`s.** [`EngineError::code`] and
//!   [`dynamis_graph::GraphError::code`] double as the wire tags, so
//!   the numeric rejection codes clients observe are append-only across
//!   releases.

use dynamis_core::{EngineError, EngineStats, SolutionDelta};
use dynamis_graph::{GraphError, Update};
use dynamis_obs::{Event, HistogramSnapshot, MetricsSnapshot};
use std::fmt;

/// Version word leading every top-level encoded value. Bump when the
/// layout of any codec in this module changes incompatibly; decoders
/// accept everything `<= WIRE_VERSION`.
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on any single length-prefixed list (vertex lists, strings,
/// batches). Far above anything the engines produce; a length beyond it
/// is corrupt by definition, and rejecting early keeps a hostile peer
/// from staging huge allocations just below the byte check.
pub const MAX_LIST: usize = 1 << 28;

/// Nested [`EngineError::Batch`] causes accepted by the decoder. Real
/// engines nest exactly once; anything deeper in a decoded stream is a
/// malformed (or hostile) value.
const MAX_ERROR_DEPTH: usize = 4;

/// Why a decode failed. Decoding is total: every malformed input maps
/// to one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the named field was complete.
    Truncated(&'static str),
    /// The value was encoded under a newer codec version than this
    /// build supports.
    UnsupportedVersion {
        /// Version the value claims.
        got: u16,
        /// Newest version this decoder understands.
        supported: u16,
    },
    /// A tag byte/word does not name any variant of the field.
    UnknownTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u16,
    },
    /// A length prefix exceeds [`MAX_LIST`] or the bytes remaining.
    TooLong {
        /// Which list was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A structurally invalid value (bad UTF-8, over-deep nesting, …).
    Malformed(&'static str),
    /// Bytes were left over after a complete top-level value (only
    /// reported by the strict `decode_*` entry points, which consume
    /// whole buffers).
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated while decoding {what}"),
            WireError::UnsupportedVersion { got, supported } => write!(
                f,
                "encoded under wire version {got}, but this build supports <= {supported}"
            ),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::TooLong { what, len } => {
                write!(f, "{what} length {len} exceeds the buffer or the list cap")
            }
            WireError::Malformed(what) => write!(f, "malformed {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after a complete value"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over an encoded buffer. All `take_*` methods
/// fail with a typed [`WireError`] instead of panicking; nothing is
/// consumed by a failed take.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// One byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Little-endian u16.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Little-endian u32.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian u64.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// List length prefix, validated against both [`MAX_LIST`] and the
    /// bytes actually remaining (`elem_bytes` per element) before any
    /// allocation can happen.
    pub fn take_len(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        let len = self.take_u32(what)? as u64;
        let fits = len <= MAX_LIST as u64
            && len
                .checked_mul(elem_bytes.max(1) as u64)
                .is_some_and(|b| b <= self.remaining() as u64);
        if !fits {
            return Err(WireError::TooLong { what, len });
        }
        Ok(len as usize)
    }

    /// Length-prefixed `u32` list.
    pub fn take_u32s(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        let len = self.take_len(4, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_u32(what)?);
        }
        Ok(out)
    }

    /// Length-prefixed UTF-8 string.
    pub fn take_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.take_len(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed(what))
    }

    /// Leading version word of a top-level value.
    pub fn take_version(&mut self, what: &'static str) -> Result<u16, WireError> {
        let got = self.take_u16(what)?;
        if got > WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                got,
                supported: WIRE_VERSION,
            });
        }
        Ok(got)
    }

    /// Fails unless the buffer was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }
}

/// Appends a little-endian u16.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed `u32` list.
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Update
// ---------------------------------------------------------------------------

/// Encodes one [`Update`] (versioned).
pub fn encode_update(u: &Update, out: &mut Vec<u8>) {
    put_u16(out, WIRE_VERSION);
    encode_update_body(u, out);
}

/// Appends one [`Update`] *without* a version word — for composing
/// into a larger versioned value (the network request codec).
pub fn encode_update_body(u: &Update, out: &mut Vec<u8>) {
    match u {
        Update::InsertEdge(a, b) => {
            out.push(1);
            put_u32(out, *a);
            put_u32(out, *b);
        }
        Update::RemoveEdge(a, b) => {
            out.push(2);
            put_u32(out, *a);
            put_u32(out, *b);
        }
        Update::InsertVertex { id, neighbors } => {
            out.push(3);
            put_u32(out, *id);
            put_u32s(out, neighbors);
        }
        Update::RemoveVertex(v) => {
            out.push(4);
            put_u32(out, *v);
        }
    }
}

/// Decodes one [`Update`]; the whole buffer must be consumed.
pub fn decode_update(buf: &[u8]) -> Result<Update, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("update")?;
    let u = take_update(&mut r)?;
    r.finish()?;
    Ok(u)
}

/// Streaming counterpart of [`decode_update`]: reads one [`Update`]
/// body (no version word) from the cursor.
pub fn take_update(r: &mut Reader<'_>) -> Result<Update, WireError> {
    match r.take_u8("update tag")? {
        1 => Ok(Update::InsertEdge(
            r.take_u32("update")?,
            r.take_u32("update")?,
        )),
        2 => Ok(Update::RemoveEdge(
            r.take_u32("update")?,
            r.take_u32("update")?,
        )),
        3 => Ok(Update::InsertVertex {
            id: r.take_u32("update")?,
            neighbors: r.take_u32s("update neighbors")?,
        }),
        4 => Ok(Update::RemoveVertex(r.take_u32("update")?)),
        tag => Err(WireError::UnknownTag {
            what: "update",
            tag: tag as u16,
        }),
    }
}

// ---------------------------------------------------------------------------
// SolutionDelta and log entries
// ---------------------------------------------------------------------------

/// Encodes one [`SolutionDelta`] (versioned).
pub fn encode_delta(d: &SolutionDelta, out: &mut Vec<u8>) {
    put_u16(out, WIRE_VERSION);
    encode_delta_body(d, out);
}

/// Appends one [`SolutionDelta`] *without* a version word — for
/// composing into a larger versioned value.
pub fn encode_delta_body(d: &SolutionDelta, out: &mut Vec<u8>) {
    put_u32s(out, &d.entered);
    put_u32s(out, &d.left);
    for f in stats_fields(&d.stats) {
        put_u64(out, f);
    }
}

fn stats_fields(s: &EngineStats) -> [u64; 7] {
    [
        s.updates,
        s.one_swaps,
        s.two_swaps,
        s.perturbations,
        s.repairs,
        s.entry_scan_steps,
        s.hot_hash_probes,
    ]
}

/// Decodes one [`SolutionDelta`]; the whole buffer must be consumed.
pub fn decode_delta(buf: &[u8]) -> Result<SolutionDelta, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("delta")?;
    let d = take_delta(&mut r)?;
    r.finish()?;
    Ok(d)
}

/// Streaming counterpart of [`decode_delta`]: reads one
/// [`SolutionDelta`] body (no version word) from the cursor.
pub fn take_delta(r: &mut Reader<'_>) -> Result<SolutionDelta, WireError> {
    let entered = r.take_u32s("delta entered")?;
    let left = r.take_u32s("delta left")?;
    let mut f = [0u64; 7];
    for slot in f.iter_mut() {
        *slot = r.take_u64("delta stats")?;
    }
    Ok(SolutionDelta {
        entered,
        left,
        stats: EngineStats {
            updates: f[0],
            one_swaps: f[1],
            two_swaps: f[2],
            perturbations: f[3],
            repairs: f[4],
            entry_scan_steps: f[5],
            hot_hash_probes: f[6],
        },
    })
}

/// Encodes one sequenced log entry — what [`crate::SharedLog`] hands a
/// subscription stream (versioned).
pub fn encode_log_entry(seq: u64, d: &SolutionDelta, out: &mut Vec<u8>) {
    put_u16(out, WIRE_VERSION);
    put_u64(out, seq);
    encode_delta_body(d, out);
}

/// Decodes one sequenced log entry; the whole buffer must be consumed.
pub fn decode_log_entry(buf: &[u8]) -> Result<(u64, SolutionDelta), WireError> {
    let mut r = Reader::new(buf);
    r.take_version("log entry")?;
    let seq = r.take_u64("log entry seq")?;
    let d = take_delta(&mut r)?;
    r.finish()?;
    Ok((seq, d))
}

// ---------------------------------------------------------------------------
// EngineError
// ---------------------------------------------------------------------------

/// Encodes one [`EngineError`] (versioned). The variant tag on the wire
/// is exactly [`EngineError::code`] (and [`GraphError::code`] for the
/// nested graph rejection), so the codes clients log are stable.
pub fn encode_engine_error(e: &EngineError, out: &mut Vec<u8>) {
    put_u16(out, WIRE_VERSION);
    encode_engine_error_body(e, out);
}

/// Appends one [`EngineError`] *without* a version word — for
/// composing into a larger versioned value.
pub fn encode_engine_error_body(e: &EngineError, out: &mut Vec<u8>) {
    put_u16(out, e.code());
    match e {
        EngineError::Graph(g) => {
            put_u16(out, g.code());
            match g {
                GraphError::VertexNotFound(v) | GraphError::SelfLoop(v) => put_u32(out, *v),
                GraphError::IdMismatch { expected, got } => {
                    put_u32(out, *expected);
                    put_u32(out, *got);
                }
                GraphError::Parse { line, message } => {
                    put_u64(out, *line as u64);
                    put_str(out, message);
                }
                GraphError::Io(msg) => put_str(out, msg),
            }
        }
        EngineError::DuplicateEdge(u, v)
        | EngineError::MissingEdge(u, v)
        | EngineError::NotIndependent(u, v) => {
            put_u32(out, *u);
            put_u32(out, *v);
        }
        EngineError::MissingGraph => {}
        EngineError::DeadInitial(v) => put_u32(out, *v),
        EngineError::BadK(k) => put_u64(out, *k as u64),
        EngineError::BadParameter(what) => put_str(out, what),
        EngineError::Batch { index, cause } => {
            put_u64(out, *index as u64);
            encode_engine_error_body(cause, out);
        }
    }
}

/// Decodes one [`EngineError`]; the whole buffer must be consumed.
///
/// `BadParameter` carries a `&'static str` in memory; a decoded message
/// is interned (capped at 256 bytes) so the round-trip preserves the
/// text. Unknown parameter strings leak a small allocation per distinct
/// message — acceptable on the client side, where servers are trusted.
pub fn decode_engine_error(buf: &[u8]) -> Result<EngineError, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("engine error")?;
    let e = take_engine_error(&mut r)?;
    r.finish()?;
    Ok(e)
}

/// Streaming counterpart of [`decode_engine_error`]: reads one
/// [`EngineError`] body (no version word) from the cursor.
pub fn take_engine_error(r: &mut Reader<'_>) -> Result<EngineError, WireError> {
    take_engine_error_at(r, 0)
}

fn take_engine_error_at(r: &mut Reader<'_>, depth: usize) -> Result<EngineError, WireError> {
    if depth > MAX_ERROR_DEPTH {
        return Err(WireError::Malformed("over-deep batch error nesting"));
    }
    match r.take_u16("engine error tag")? {
        1 => {
            let g = match r.take_u16("graph error tag")? {
                1 => GraphError::VertexNotFound(r.take_u32("graph error")?),
                2 => GraphError::SelfLoop(r.take_u32("graph error")?),
                3 => GraphError::IdMismatch {
                    expected: r.take_u32("graph error")?,
                    got: r.take_u32("graph error")?,
                },
                4 => GraphError::Parse {
                    line: usize::try_from(r.take_u64("graph error")?)
                        .map_err(|_| WireError::Malformed("parse line"))?,
                    message: r.take_str("graph error message")?,
                },
                5 => GraphError::Io(r.take_str("graph error message")?),
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "graph error",
                        tag,
                    })
                }
            };
            Ok(EngineError::Graph(g))
        }
        2 => Ok(EngineError::DuplicateEdge(
            r.take_u32("engine error")?,
            r.take_u32("engine error")?,
        )),
        3 => Ok(EngineError::MissingEdge(
            r.take_u32("engine error")?,
            r.take_u32("engine error")?,
        )),
        4 => Ok(EngineError::MissingGraph),
        5 => Ok(EngineError::NotIndependent(
            r.take_u32("engine error")?,
            r.take_u32("engine error")?,
        )),
        6 => Ok(EngineError::DeadInitial(r.take_u32("engine error")?)),
        7 => Ok(EngineError::BadK(
            usize::try_from(r.take_u64("engine error")?)
                .map_err(|_| WireError::Malformed("bad-k value"))?,
        )),
        8 => {
            let s = r.take_str("engine error parameter")?;
            Ok(EngineError::BadParameter(intern_parameter(&s)?))
        }
        9 => {
            let index = usize::try_from(r.take_u64("engine error")?)
                .map_err(|_| WireError::Malformed("batch index"))?;
            let cause = take_engine_error_at(r, depth + 1)?;
            Ok(EngineError::Batch {
                index,
                cause: Box::new(cause),
            })
        }
        tag => Err(WireError::UnknownTag {
            what: "engine error",
            tag,
        }),
    }
}

/// Interns a decoded `BadParameter` message as `&'static str`, capped so
/// a hostile stream cannot leak unbounded memory. Repeated messages hit
/// the intern table instead of leaking again.
fn intern_parameter(s: &str) -> Result<&'static str, WireError> {
    use std::collections::HashSet;
    use std::sync::Mutex;
    if s.len() > 256 {
        return Err(WireError::TooLong {
            what: "bad-parameter message",
            len: s.len() as u64,
        });
    }
    static TABLE: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut g = TABLE.lock().unwrap();
    let table = g.get_or_insert_with(HashSet::new);
    if let Some(&known) = table.get(s) {
        return Ok(known);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.insert(leaked);
    Ok(leaked)
}

// ---------------------------------------------------------------------------
// Ticket verdicts
// ---------------------------------------------------------------------------

/// Encodes one ticketed verdict `Result<seq, EngineError>` (versioned) —
/// the wire mirror of the in-process [`crate::Ticket::wait`] outcome.
pub fn encode_verdict(v: &Result<u64, EngineError>, out: &mut Vec<u8>) {
    put_u16(out, WIRE_VERSION);
    encode_verdict_body(v, out);
}

/// Appends one verdict *without* a version word — for composing into a
/// larger versioned value.
pub fn encode_verdict_body(v: &Result<u64, EngineError>, out: &mut Vec<u8>) {
    match v {
        Ok(seq) => {
            out.push(1);
            put_u64(out, *seq);
        }
        Err(e) => {
            out.push(2);
            encode_engine_error_body(e, out);
        }
    }
}

/// Decodes one ticketed verdict; the whole buffer must be consumed.
pub fn decode_verdict(buf: &[u8]) -> Result<Result<u64, EngineError>, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("verdict")?;
    let v = take_verdict(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Streaming counterpart of [`decode_verdict`]: reads one verdict body
/// (no version word) from the cursor.
pub fn take_verdict(r: &mut Reader<'_>) -> Result<Result<u64, EngineError>, WireError> {
    match r.take_u8("verdict tag")? {
        1 => Ok(Ok(r.take_u64("verdict seq")?)),
        2 => Ok(Err(take_engine_error(r)?)),
        tag => Err(WireError::UnknownTag {
            what: "verdict",
            tag: tag as u16,
        }),
    }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

/// Encodes one [`MetricsSnapshot`] (versioned). The body carries the
/// snapshot's own schema version too, so the metrics schema can evolve
/// independently of the wire framing.
pub fn encode_metrics(m: &MetricsSnapshot, out: &mut Vec<u8>) {
    put_u16(out, WIRE_VERSION);
    encode_metrics_body(m, out);
}

/// Appends one [`MetricsSnapshot`] *without* a version word — for
/// composing into a larger versioned value (the network response
/// codec).
pub fn encode_metrics_body(m: &MetricsSnapshot, out: &mut Vec<u8>) {
    put_u32(out, m.version);
    put_u32(out, m.counters.len() as u32);
    for (name, v) in &m.counters {
        put_str(out, name);
        put_u64(out, *v);
    }
    put_u32(out, m.gauges.len() as u32);
    for (name, v) in &m.gauges {
        put_str(out, name);
        put_u64(out, *v);
    }
    put_u32(out, m.histograms.len() as u32);
    for (name, h) in &m.histograms {
        put_str(out, name);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        put_u64(out, h.max);
        put_u32(out, h.buckets.len() as u32);
        for &(i, c) in &h.buckets {
            put_u32(out, i);
            put_u64(out, c);
        }
    }
    put_u32(out, m.events.len() as u32);
    for e in &m.events {
        put_u64(out, e.at_micros);
        put_str(out, &e.kind);
        put_str(out, &e.detail);
    }
    put_u64(out, m.events_dropped);
}

/// Decodes one [`MetricsSnapshot`]; the whole buffer must be consumed.
pub fn decode_metrics(buf: &[u8]) -> Result<MetricsSnapshot, WireError> {
    let mut r = Reader::new(buf);
    r.take_version("metrics")?;
    let m = take_metrics(&mut r)?;
    r.finish()?;
    Ok(m)
}

/// Streaming counterpart of [`decode_metrics`]: reads one
/// [`MetricsSnapshot`] body (no version word) from the cursor.
pub fn take_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let mut m = MetricsSnapshot {
        version: r.take_u32("metrics version")?,
        ..MetricsSnapshot::default()
    };
    // Element byte floors keep a hostile length prefix from staging an
    // allocation the buffer cannot back.
    let n = r.take_len(12, "metrics counters")?;
    for _ in 0..n {
        let name = r.take_str("counter name")?;
        m.counters.push((name, r.take_u64("counter value")?));
    }
    let n = r.take_len(12, "metrics gauges")?;
    for _ in 0..n {
        let name = r.take_str("gauge name")?;
        m.gauges.push((name, r.take_u64("gauge value")?));
    }
    let n = r.take_len(32, "metrics histograms")?;
    for _ in 0..n {
        let name = r.take_str("histogram name")?;
        let mut h = HistogramSnapshot {
            count: r.take_u64("histogram count")?,
            sum: r.take_u64("histogram sum")?,
            max: r.take_u64("histogram max")?,
            buckets: Vec::new(),
        };
        let b = r.take_len(12, "histogram buckets")?;
        for _ in 0..b {
            let i = r.take_u32("bucket index")?;
            if i as usize >= dynamis_obs::NUM_BUCKETS {
                return Err(WireError::Malformed("bucket index"));
            }
            h.buckets.push((i, r.take_u64("bucket count")?));
        }
        m.histograms.push((name, h));
    }
    let n = r.take_len(16, "metrics events")?;
    for _ in 0..n {
        m.events.push(Event {
            at_micros: r.take_u64("event time")?,
            kind: r.take_str("event kind")?,
            detail: r.take_str("event detail")?,
        });
    }
    m.events_dropped = r.take_u64("events dropped")?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_version_is_a_typed_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_delta(&SolutionDelta::default(), &mut buf);
        buf[0] = (WIRE_VERSION + 1) as u8; // bump the version word
        assert_eq!(
            decode_delta(&buf),
            Err(WireError::UnsupportedVersion {
                got: WIRE_VERSION + 1,
                supported: WIRE_VERSION
            })
        );
    }

    #[test]
    fn hostile_length_prefix_fails_before_allocating() {
        // A delta claiming u32::MAX entered vertices with 4 bytes of
        // payload: the length check must fail on the byte budget.
        let mut buf = Vec::new();
        put_u16(&mut buf, WIRE_VERSION);
        put_u32(&mut buf, u32::MAX);
        put_u32(&mut buf, 7);
        match decode_delta(&buf) {
            Err(WireError::TooLong { len, .. }) => assert_eq!(len, u32::MAX as u64),
            other => panic!("expected TooLong, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_update(&Update::RemoveVertex(3), &mut buf);
        buf.push(0xFF);
        assert_eq!(decode_update(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_parameter_messages_intern_once() {
        let e = EngineError::BadParameter("restart interval must be positive");
        let mut buf = Vec::new();
        encode_engine_error(&e, &mut buf);
        let a = decode_engine_error(&buf).unwrap();
        let b = decode_engine_error(&buf).unwrap();
        assert_eq!(a, e);
        let (EngineError::BadParameter(pa), EngineError::BadParameter(pb)) = (&a, &b) else {
            panic!("wrong variant");
        };
        assert_eq!(pa.as_ptr(), pb.as_ptr(), "second decode hits the table");
    }
}
