//! The wire protocol: length-prefixed, CRC-checksummed frames over TCP.
//!
//! Every message reuses the durable-store frame layout
//! ([`inflow_tracking::store::frame`]):
//!
//! ```text
//! tag: u8 | len: u32 LE | payload: [u8; len] | crc32: u32 LE
//! ```
//!
//! with the CRC covering tag, length and payload — the same self-verifying
//! envelope the WAL uses on disk, so a truncated or bit-flipped frame is a
//! typed error on both media. Payload encodings are fixed-width
//! little-endian via the shared [`frame`] codecs (readings are the WAL's
//! 16-byte records, OTT rows the 24-byte snapshot records).
//!
//! Requests receive exactly one reply frame each, in request order.
//! [`tag::UPDATE`] frames are *pushed* asynchronously on a connection that
//! registered a subscription and may interleave with replies; clients
//! demultiplex by tag (see [`crate::Client`]).

use inflow_indoor::PoiId;
use inflow_obs::{Hop, TraceChain};
use inflow_tracking::store::frame::{self, Frame};
use inflow_tracking::{ObjectId, OttRow, RawReading, StoreError};
use std::io::{self, Read, Write};

/// Frame tags. Requests are < 64, replies >= 64.
pub mod tag {
    /// Client → server: a batch of raw readings to ingest.
    pub const PUBLISH: u8 = 1;
    /// Client → server: register a continuous top-k subscription.
    pub const SUBSCRIBE: u8 = 2;
    /// Client → server: drop a subscription by id.
    pub const UNSUBSCRIBE: u8 = 3;
    /// Client → server: one-shot snapshot/interval top-k query.
    pub const QUERY: u8 = 4;
    /// Client → server: flush all shards into the engine, then ack —
    /// after the ack, every previously published reading is reflected.
    pub const BARRIER: u8 = 5;
    /// Client → server: dump every object's current rows (testing /
    /// inspection; the batch-equivalence oracle).
    pub const DUMP_ROWS: u8 = 6;
    /// Client → server: render the server metrics registry.
    pub const STATS: u8 = 7;
    /// Client → server: the subscription's current materialized top-k
    /// (regardless of the ε notification gate).
    pub const CURRENT: u8 = 8;
    /// Client → server: shut the server down.
    pub const SHUTDOWN: u8 = 9;
    /// Client → server: protocol version negotiation; payload is the
    /// client's highest supported version (u32). Servers predating this
    /// tag answer `ERROR`, which clients treat as version 1.
    pub const HELLO: u8 = 10;
    /// Client → server: machine-readable telemetry snapshot (counters,
    /// histograms with exact bucket bounds, shard queue depths).
    pub const METRICS: u8 = 11;
    /// Client → server: recent completed notification traces plus the
    /// slow-request log, as JSON.
    pub const TRACE: u8 = 12;
    /// Client → server: dump the flight recorder (recent pipeline
    /// events) as JSONL — the protocol-triggered postmortem.
    pub const FLIGHT: u8 = 13;
    /// Client → server: barrier + deterministic state digest. The server
    /// flushes every shard, then replies [`HASH`] with the engine digest
    /// and one per-shard tracker digest — the record/replay harness's
    /// per-barrier comparison point.
    pub const STATE_HASH: u8 = 14;
    /// Client → server: one-shot count-distribution query; payload is a
    /// subspec with a `Distrib` kind. Unlike `QUERY` (which answers any
    /// kind with its ranked top-k), this returns the full per-POI
    /// Poisson-binomial detail as [`DISTRIB_JSON`].
    pub const DISTRIB: u8 = 15;

    /// Server → client: request acknowledged.
    pub const ACK: u8 = 64;
    /// Server → client: a ranked top-k result.
    pub const RESULT: u8 = 65;
    /// Server → client (pushed): a subscription's new top-k.
    pub const UPDATE: u8 = 66;
    /// Server → client: the row dump.
    pub const ROWS: u8 = 67;
    /// Server → client: request failed; payload is a UTF-8 message.
    pub const ERROR: u8 = 68;
    /// Server → client: rendered metrics text.
    pub const STATS_TEXT: u8 = 69;
    /// Server → client: subscription registered; payload is its id.
    pub const SUB_ACK: u8 = 70;
    /// Server → client: negotiated protocol version (u32).
    pub const HELLO_ACK: u8 = 71;
    /// Server → client: telemetry snapshot; payload is a UTF-8 JSON
    /// object (see `ServiceMetrics::snapshot_json`).
    pub const METRICS_JSON: u8 = 72;
    /// Server → client: trace snapshot; payload is a UTF-8 JSON object.
    pub const TRACE_JSON: u8 = 73;
    /// Server → client: flight-recorder dump; payload is UTF-8 JSONL.
    pub const FLIGHT_JSONL: u8 = 74;
    /// Server → client: barrier state digest
    /// (`engine u64 | n u32 | n × shard u64`).
    pub const HASH: u8 = 75;
    /// Server → client: request refused under overload; payload is the
    /// deepest shard queue depth (u64). Backpressure, not failure — the
    /// client should back off and retry.
    pub const OVERLOADED: u8 = 76;
    /// Server → client: full count-distribution detail; payload is a
    /// UTF-8 JSON object (per-POI pmf, tail mass, `P(count ≥ kq)`,
    /// expectation, median).
    pub const DISTRIB_JSON: u8 = 77;
}

/// Highest protocol version this build speaks.
///
/// * **v1** — the PR 4/5 wire format: no `HELLO`, `UPDATE` carries
///   `sub_id | seq | ranked` only.
/// * **v2** — adds `HELLO`/`METRICS`/`TRACE`/`FLIGHT` and an optional
///   trace-chain section trailing the `UPDATE` payload. The section is
///   only sent to connections that negotiated v2, so v1 clients keep
///   decoding byte-identical frames.
/// * **v3** — adds `STATE_HASH`/`HASH` (per-barrier state digests for
///   record/replay), `OVERLOADED` backpressure replies, and an optional
///   resume section trailing the `SUBSCRIBE` payload
///   (`last_seq u64 | last_hash u64`) for sequence-numbered
///   reconnection. All additions are new tags or optional trailing
///   sections, so v1/v2 frames stay byte-identical.
/// * **v4** — adds the `Distrib`/`LongVisit` subscription kinds (wire
///   kind bytes 2/3 with kind-specific parameter sections) and the
///   `DISTRIB`/`DISTRIB_JSON` one-shot distribution-detail verb. Kinds
///   0/1 keep their exact v1 byte layout, so older clients and recorded
///   replay logs parse unchanged.
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound a decoded subscription `k` (top-k size) is clamped to.
/// `k` is the one wire-derived quantity that sizes work without sizing
/// payload, so the decoder bounds it instead of trusting the peer; no
/// legitimate query asks for more ranked POIs than this.
pub const MAX_SUB_K: u32 = 4096;

/// The time parameter of a subscription or one-shot query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubKind {
    /// Continuous snapshot top-k at time `t`.
    Snapshot { t: f64 },
    /// Continuous interval top-k over `[ts, te]`.
    Interval { ts: f64, te: f64 },
    /// Continuous count-distribution top-k at time `t`: POIs ranked by
    /// `P(count ≥ kq)` under the Poisson-binomial distribution of the
    /// snapshot count, convolved with tail bound `kmax` (v4).
    Distrib { t: f64, kq: u32, kmax: u32 },
    /// Continuous long-visit top-k over `[ts, te]`: POIs ranked by the
    /// number of objects whose expected dwell reaches `d` (v4).
    LongVisit { ts: f64, te: f64, d: f64 },
}

impl SubKind {
    /// The largest time the query depends on; row changes strictly after
    /// it can still affect the answer (successor records shape the
    /// uncertainty region), changes strictly before its matching rows
    /// cannot un-happen.
    pub fn end_time(&self) -> f64 {
        match *self {
            SubKind::Snapshot { t } => t,
            SubKind::Interval { te, .. } => te,
            SubKind::Distrib { t, .. } => t,
            SubKind::LongVisit { te, .. } => te,
        }
    }
}

/// A subscription / one-shot query specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SubSpec {
    pub kind: SubKind,
    /// Result size.
    pub k: usize,
    /// Result-change threshold: an update is pushed only when the top-k
    /// membership changes or some member's flow moved by more than ε
    /// since the last pushed result. `0.0` pushes every change.
    pub epsilon: f64,
    /// Query POI set; empty means *all* POIs of the floor plan.
    pub pois: Vec<PoiId>,
}

/// A `SUBSCRIBE` resume section: re-registers a subscription after a
/// reconnect without duplicating or losing updates. `last_seq` is the
/// highest sequence number the client received for the original
/// subscription; `last_hash` is [`hash_ranked`] of that update's result.
/// The server continues numbering from `last_seq`, and suppresses the
/// initial push when the materialized result still hashes to
/// `last_hash` (the client already has it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resume {
    pub last_seq: u64,
    pub last_hash: u64,
}

/// Order-sensitive 64-bit digest of a ranked result (FNV-1a over each
/// entry's POI id and the flow's exact bit pattern). Used by the resume
/// protocol and the replay harness's answer digests; equality means the
/// two results are bitwise identical.
pub fn hash_ranked(ranked: &[(PoiId, f64)]) -> u64 {
    let mut bytes = Vec::with_capacity(ranked.len() * 12);
    for &(p, f) in ranked {
        bytes.extend_from_slice(&p.0.to_le_bytes());
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    frame::fnv1a(&bytes)
}

/// Writes one frame to a stream.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(9 + payload.len());
    frame::write_frame(&mut buf, tag, payload);
    w.write_all(&buf)
}

fn bad(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// Reads the next frame's tag byte. `Ok(None)` on clean EOF at a frame
/// boundary; timeouts surface as `WouldBlock`/`TimedOut` errors with no
/// bytes consumed, so the caller can poll a shutdown flag and retry.
pub fn read_tag(r: &mut impl Read) -> io::Result<Option<u8>> {
    let mut b = [0u8; 1];
    match r.read(&mut b) {
        Ok(0) => Ok(None),
        Ok(_) => {
            let [byte] = b;
            Ok(Some(byte))
        }
        Err(e) => Err(e),
    }
}

/// Reads the remainder of a frame whose tag was already consumed,
/// verifying length bound and checksum. Raw length/CRC parsing lives in
/// the shared [`frame`] module — the single place allowed to touch wire
/// bytes directly.
pub fn read_body(r: &mut impl Read, tag: u8) -> io::Result<Vec<u8>> {
    frame::read_body_from(r, tag)
}

/// Reads one whole frame; `Ok(None)` on clean EOF.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    match read_tag(r)? {
        None => Ok(None),
        Some(tag) => Ok(Some((tag, read_body(r, tag)?))),
    }
}

/// Wraps a payload slice so the shared [`frame::Cursor`] codecs apply.
fn cursor(payload: &[u8]) -> frame::Cursor<'_> {
    // Offset 0: wire frames don't carry a file position.
    frame::Cursor::new(&Frame { offset: 0, tag: 0, payload })
}

fn decode_err(e: StoreError) -> io::Error {
    bad(format!("malformed payload: {e}"))
}

// ---- payload codecs ------------------------------------------------------

/// `PUBLISH`: `count u32 | count × reading (16 B)`.
pub fn encode_publish(readings: &[RawReading]) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + readings.len() * 16);
    b.extend_from_slice(&(readings.len() as u32).to_le_bytes());
    for r in readings {
        b.extend_from_slice(&frame::encode_reading(r));
    }
    b
}

pub fn decode_publish(payload: &[u8]) -> io::Result<Vec<RawReading>> {
    let mut c = cursor(payload);
    let n = c.count("reading count", 16).map_err(decode_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let object = ObjectId(c.u32("object").map_err(decode_err)?);
        let device = inflow_indoor::DeviceId(c.u32("device").map_err(decode_err)?);
        let t = c.finite_f64("t").map_err(decode_err)?;
        out.push(RawReading { object, device, t });
    }
    c.done().map_err(decode_err)?;
    Ok(out)
}

/// `SUBSCRIBE` / `QUERY`:
/// `kind u8 | kind params | k u32 | epsilon f64 | n u32 | n × poi u32`.
///
/// Kind parameter sections (everything after them — the common trailer —
/// is shared):
///
/// * kind 0, `Snapshot`: `t f64 | 0.0 f64` (byte-identical to v1);
/// * kind 1, `Interval`: `ts f64 | te f64` (byte-identical to v1);
/// * kind 2, `Distrib` (v4): `t f64 | kq u32 | kmax u32`;
/// * kind 3, `LongVisit` (v4): `ts f64 | te f64 | d f64`.
pub fn encode_subspec(spec: &SubSpec) -> Vec<u8> {
    let mut b = Vec::with_capacity(41 + spec.pois.len() * 4);
    match spec.kind {
        SubKind::Snapshot { t } => {
            b.push(0u8);
            b.extend_from_slice(&t.to_le_bytes());
            b.extend_from_slice(&0.0f64.to_le_bytes());
        }
        SubKind::Interval { ts, te } => {
            b.push(1u8);
            b.extend_from_slice(&ts.to_le_bytes());
            b.extend_from_slice(&te.to_le_bytes());
        }
        SubKind::Distrib { t, kq, kmax } => {
            b.push(2u8);
            b.extend_from_slice(&t.to_le_bytes());
            b.extend_from_slice(&kq.to_le_bytes());
            b.extend_from_slice(&kmax.to_le_bytes());
        }
        SubKind::LongVisit { ts, te, d } => {
            b.push(3u8);
            b.extend_from_slice(&ts.to_le_bytes());
            b.extend_from_slice(&te.to_le_bytes());
            b.extend_from_slice(&d.to_le_bytes());
        }
    }
    b.extend_from_slice(&(spec.k as u32).to_le_bytes());
    b.extend_from_slice(&spec.epsilon.to_le_bytes());
    b.extend_from_slice(&(spec.pois.len() as u32).to_le_bytes());
    for p in &spec.pois {
        b.extend_from_slice(&p.0.to_le_bytes());
    }
    b
}

pub fn decode_subspec(payload: &[u8]) -> io::Result<SubSpec> {
    let (spec, resume) = decode_subscribe(payload)?;
    if resume.is_some() {
        return Err(bad("unexpected resume section"));
    }
    Ok(spec)
}

/// `SUBSCRIBE` (v3): the subspec payload followed by an optional resume
/// section `last_seq u64 | last_hash u64`. Absent section decodes as
/// `None`, so v1/v2 frames parse unchanged.
pub fn encode_subscribe(spec: &SubSpec, resume: Option<&Resume>) -> Vec<u8> {
    let mut b = encode_subspec(spec);
    if let Some(r) = resume {
        b.extend_from_slice(&r.last_seq.to_le_bytes());
        b.extend_from_slice(&r.last_hash.to_le_bytes());
    }
    b
}

pub fn decode_subscribe(payload: &[u8]) -> io::Result<(SubSpec, Option<Resume>)> {
    let mut c = cursor(payload);
    let kind_byte = c.u8("kind").map_err(decode_err)?;
    let kind = match kind_byte {
        0 => {
            let t = c.finite_f64("t").map_err(decode_err)?;
            c.f64("pad").map_err(decode_err)?;
            SubKind::Snapshot { t }
        }
        1 => {
            let ts = c.finite_f64("ts").map_err(decode_err)?;
            let te = c.f64("te").map_err(decode_err)?;
            if !te.is_finite() || te < ts {
                return Err(bad(format!("invalid interval [{ts}, {te}]")));
            }
            SubKind::Interval { ts, te }
        }
        2 => {
            let t = c.finite_f64("t").map_err(decode_err)?;
            let kq = c.u32("kq").map_err(decode_err)?;
            let kmax = c.u32("kmax").map_err(decode_err)?;
            if kmax == 0 {
                return Err(bad("kmax must be at least 1"));
            }
            SubKind::Distrib { t, kq, kmax }
        }
        3 => {
            let ts = c.finite_f64("ts").map_err(decode_err)?;
            let te = c.f64("te").map_err(decode_err)?;
            if !te.is_finite() || te < ts {
                return Err(bad(format!("invalid interval [{ts}, {te}]")));
            }
            let d = c.f64("d").map_err(decode_err)?;
            if !d.is_finite() || d < 0.0 {
                return Err(bad(format!("invalid dwell threshold {d}")));
            }
            SubKind::LongVisit { ts, te, d }
        }
        other => return Err(bad(format!("unknown query kind {other}"))),
    };
    let k = c.u32("k").map_err(decode_err)?.min(MAX_SUB_K) as usize;
    let epsilon = c.f64("epsilon").map_err(decode_err)?;
    let n = c.count("poi count", 4).map_err(decode_err)?;
    let mut pois = Vec::with_capacity(n);
    for _ in 0..n {
        pois.push(PoiId(c.u32("poi").map_err(decode_err)?));
    }
    let resume = if c.is_empty() {
        None
    } else {
        let last_seq = c.u64("resume last_seq").map_err(decode_err)?;
        let last_hash = c.u64("resume last_hash").map_err(decode_err)?;
        Some(Resume { last_seq, last_hash })
    };
    c.done().map_err(decode_err)?;
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(bad(format!("invalid epsilon {epsilon}")));
    }
    Ok((SubSpec { kind, k, epsilon, pois }, resume))
}

/// `RESULT`: `count u32 | count × (poi u32 | flow f64)`.
pub fn encode_ranked(ranked: &[(PoiId, f64)]) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + ranked.len() * 12);
    b.extend_from_slice(&(ranked.len() as u32).to_le_bytes());
    for &(p, f) in ranked {
        b.extend_from_slice(&p.0.to_le_bytes());
        b.extend_from_slice(&f.to_le_bytes());
    }
    b
}

pub fn decode_ranked(payload: &[u8]) -> io::Result<Vec<(PoiId, f64)>> {
    let mut c = cursor(payload);
    let n = c.count("entry count", 12).map_err(decode_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let p = PoiId(c.u32("poi").map_err(decode_err)?);
        let f = c.finite_f64("flow").map_err(decode_err)?;
        out.push((p, f));
    }
    c.done().map_err(decode_err)?;
    Ok(out)
}

/// `UPDATE` (v1): `sub_id u64 | seq u64 | ranked`. Byte-identical to
/// the pre-tracing wire format.
pub fn encode_update(sub_id: u64, seq: u64, ranked: &[(PoiId, f64)]) -> Vec<u8> {
    encode_update_traced(sub_id, seq, ranked, None)
}

/// `UPDATE` (v2): the v1 payload followed, when `trace` is given, by
/// `trace_id u64 | hop_count u8 | hop_count × (hop code u8 | at_ns u64)`.
/// Only sent to connections that negotiated protocol v2.
pub fn encode_update_traced(
    sub_id: u64,
    seq: u64,
    ranked: &[(PoiId, f64)],
    trace: Option<&TraceChain>,
) -> Vec<u8> {
    let mut b = Vec::with_capacity(20 + ranked.len() * 12 + trace.map_or(0, |_| 9 + 7 * 9));
    b.extend_from_slice(&sub_id.to_le_bytes());
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&encode_ranked(ranked));
    if let Some(chain) = trace {
        b.extend_from_slice(&chain.id.to_le_bytes());
        b.push(chain.hop_count() as u8);
        for (hop, at_ns) in chain.hops() {
            b.push(hop.code());
            b.extend_from_slice(&at_ns.to_le_bytes());
        }
    }
    b
}

/// Decoded `UPDATE` payload: `(sub_id, seq, ranked, trace)`. `trace` is
/// `None` for v1 frames.
pub type UpdateParts = (u64, u64, Vec<(PoiId, f64)>, Option<TraceChain>);

pub fn decode_update(payload: &[u8]) -> io::Result<UpdateParts> {
    let mut c = cursor(payload);
    let sub_id = c.u64("sub id").map_err(decode_err)?;
    let seq = c.u64("seq").map_err(decode_err)?;
    let n = c.count("entry count", 12).map_err(decode_err)?;
    let mut ranked = Vec::with_capacity(n);
    for _ in 0..n {
        let p = PoiId(c.u32("poi").map_err(decode_err)?);
        let f = c.finite_f64("flow").map_err(decode_err)?;
        ranked.push((p, f));
    }
    let trace = if c.is_empty() {
        None
    } else {
        let id = c.u64("trace id").map_err(decode_err)?;
        let hops = c.u8("hop count").map_err(decode_err)?;
        let mut chain = TraceChain::new(id);
        for _ in 0..hops {
            let code = c.u8("hop code").map_err(decode_err)?;
            let at_ns = c.u64("hop at_ns").map_err(decode_err)?;
            // Unknown codes (a newer server) are skipped, not fatal.
            if let Some(hop) = Hop::from_code(code) {
                chain.stamp(hop, at_ns);
            }
        }
        Some(chain)
    };
    c.done().map_err(decode_err)?;
    Ok((sub_id, seq, ranked, trace))
}

/// `ROWS`: `count u32 | count × row (24 B)`.
pub fn encode_rows(rows: &[OttRow]) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + rows.len() * 24);
    b.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for r in rows {
        b.extend_from_slice(&frame::encode_row(r));
    }
    b
}

pub fn decode_rows(payload: &[u8]) -> io::Result<Vec<OttRow>> {
    let mut c = cursor(payload);
    let n = c.count("row count", 24).map_err(decode_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(OttRow {
            object: ObjectId(c.u32("object").map_err(decode_err)?),
            device: inflow_indoor::DeviceId(c.u32("device").map_err(decode_err)?),
            ts: c.finite_f64("ts").map_err(decode_err)?,
            te: c.finite_f64("te").map_err(decode_err)?,
        });
    }
    c.done().map_err(decode_err)?;
    Ok(out)
}

/// `SUB_ACK` / `UNSUBSCRIBE` / `CURRENT`: one u64 id.
pub fn encode_u64(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

pub fn decode_u64(payload: &[u8]) -> io::Result<u64> {
    let mut c = cursor(payload);
    let v = c.u64("id").map_err(decode_err)?;
    c.done().map_err(decode_err)?;
    Ok(v)
}

/// A barrier state digest: the engine's combined digest (rows + every
/// subscription's materialized answer) plus one tracker digest per
/// shard, in shard order. A crashed, not-yet-restarted shard reports 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateHash {
    pub engine: u64,
    pub shards: Vec<u64>,
}

/// `HASH`: `engine u64 | n u32 | n × shard u64`.
pub fn encode_state_hash(h: &StateHash) -> Vec<u8> {
    let mut b = Vec::with_capacity(12 + h.shards.len() * 8);
    b.extend_from_slice(&h.engine.to_le_bytes());
    b.extend_from_slice(&(h.shards.len() as u32).to_le_bytes());
    for &s in &h.shards {
        b.extend_from_slice(&s.to_le_bytes());
    }
    b
}

pub fn decode_state_hash(payload: &[u8]) -> io::Result<StateHash> {
    let mut c = cursor(payload);
    let engine = c.u64("engine hash").map_err(decode_err)?;
    let n = c.count("shard count", 8).map_err(decode_err)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(c.u64("shard hash").map_err(decode_err)?);
    }
    c.done().map_err(decode_err)?;
    Ok(StateHash { engine, shards })
}

/// `HELLO` / `HELLO_ACK`: one u32 protocol version.
pub fn encode_u32(v: u32) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

pub fn decode_u32(payload: &[u8]) -> io::Result<u32> {
    let mut c = cursor(payload);
    let v = c.u32("version").map_err(decode_err)?;
    c.done().map_err(decode_err)?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let spec = SubSpec {
            kind: SubKind::Interval { ts: 10.0, te: 90.0 },
            k: 5,
            epsilon: 0.25,
            pois: vec![PoiId(3), PoiId(1)],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::SUBSCRIBE, &encode_subspec(&spec)).unwrap();
        write_frame(&mut buf, tag::BARRIER, &[]).unwrap();
        let mut r = buf.as_slice();
        let (t1, p1) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(t1, tag::SUBSCRIBE);
        assert_eq!(decode_subspec(&p1).unwrap(), spec);
        let (t2, p2) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((t2, p2.len()), (tag::BARRIER, 0));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::PUBLISH, &encode_publish(&[])).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn publish_and_rows_round_trip() {
        let readings = vec![
            RawReading { object: ObjectId(7), device: inflow_indoor::DeviceId(2), t: 1.5 },
            RawReading { object: ObjectId(1), device: inflow_indoor::DeviceId(0), t: 2.25 },
        ];
        assert_eq!(decode_publish(&encode_publish(&readings)).unwrap(), readings);
        let rows = vec![OttRow {
            object: ObjectId(7),
            device: inflow_indoor::DeviceId(2),
            ts: 1.5,
            te: 9.0,
        }];
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
        let ranked = vec![(PoiId(4), 1.25), (PoiId(0), 0.5)];
        let up = encode_update(9, 3, &ranked);
        assert_eq!(decode_update(&up).unwrap(), (9, 3, ranked, None));
    }

    #[test]
    fn traced_update_round_trips_and_v1_stays_byte_identical() {
        let ranked = vec![(PoiId(4), 1.25)];
        let mut chain = TraceChain::new(42);
        for (i, &h) in Hop::ALL.iter().enumerate() {
            chain.stamp(h, 1000 + i as u64);
        }
        let v2 = encode_update_traced(9, 3, &ranked, Some(&chain));
        let (sub, seq, got_ranked, got_trace) = decode_update(&v2).unwrap();
        assert_eq!((sub, seq), (9, 3));
        assert_eq!(got_ranked, ranked);
        assert_eq!(got_trace, Some(chain));
        // The untraced encoding is exactly the old layout: the traced
        // payload minus its trailing section.
        let v1 = encode_update(9, 3, &ranked);
        assert_eq!(v1.as_slice(), &v2[..v1.len()]);
    }

    #[test]
    fn hello_version_round_trips() {
        assert_eq!(decode_u32(&encode_u32(PROTOCOL_VERSION)).unwrap(), 4);
        assert!(decode_u32(&[1, 2]).is_err());
    }

    #[test]
    fn v4_kinds_round_trip() {
        for kind in [
            SubKind::Distrib { t: 120.0, kq: 3, kmax: 16 },
            SubKind::LongVisit { ts: 10.0, te: 90.0, d: 12.5 },
        ] {
            let spec =
                SubSpec { kind, k: 4, epsilon: 0.125, pois: vec![PoiId(5), PoiId(0), PoiId(2)] };
            assert_eq!(decode_subspec(&encode_subspec(&spec)).unwrap(), spec);
            let resume = Resume { last_seq: 9, last_hash: 0xF00D };
            let b = encode_subscribe(&spec, Some(&resume));
            assert_eq!(decode_subscribe(&b).unwrap(), (spec.clone(), Some(resume)));
        }
        // Invalid v4 parameters are typed errors, not misparses.
        let mut bad_kmax = encode_subspec(&SubSpec {
            kind: SubKind::Distrib { t: 1.0, kq: 1, kmax: 1 },
            k: 1,
            epsilon: 0.0,
            pois: vec![],
        });
        // kmax u32 sits at offset 1 (kind) + 8 (t) + 4 (kq).
        bad_kmax[13..17].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_subspec(&bad_kmax).is_err());
        let bad_d = SubSpec {
            kind: SubKind::LongVisit { ts: 0.0, te: 1.0, d: -1.0 },
            k: 1,
            epsilon: 0.0,
            pois: vec![],
        };
        assert!(decode_subspec(&encode_subspec(&bad_d)).is_err());
    }

    #[test]
    fn subscribe_resume_section_round_trips_and_plain_stays_identical() {
        let spec = SubSpec {
            kind: SubKind::Snapshot { t: 42.0 },
            k: 3,
            epsilon: 0.5,
            pois: vec![PoiId(2)],
        };
        // No resume: byte-identical to the v1/v2 encoding.
        assert_eq!(encode_subscribe(&spec, None), encode_subspec(&spec));
        assert_eq!(decode_subscribe(&encode_subspec(&spec)).unwrap(), (spec.clone(), None));

        let resume = Resume { last_seq: 17, last_hash: 0xDEAD_BEEF };
        let b = encode_subscribe(&spec, Some(&resume));
        assert_eq!(decode_subscribe(&b).unwrap(), (spec.clone(), Some(resume)));
        // The strict decoder refuses a resume section (QUERY payloads).
        assert!(decode_subspec(&b).is_err());
        // A truncated resume section is rejected, not misparsed.
        let mut torn = b.clone();
        torn.pop();
        assert!(decode_subscribe(&torn).is_err());
    }

    #[test]
    fn state_hash_round_trips() {
        let h = StateHash { engine: 7, shards: vec![1, 2, 3] };
        assert_eq!(decode_state_hash(&encode_state_hash(&h)).unwrap(), h);
        assert!(decode_state_hash(&[0u8; 3]).is_err());
    }

    #[test]
    fn hash_ranked_is_order_and_bit_sensitive() {
        let a = vec![(PoiId(1), 0.5), (PoiId(2), 0.25)];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(hash_ranked(&a), hash_ranked(&b));
        let mut c = a.clone();
        c[0].1 = 0.5 + f64::EPSILON;
        assert_ne!(hash_ranked(&a), hash_ranked(&c));
        assert_eq!(hash_ranked(&a), hash_ranked(&a.clone()));
    }

    #[test]
    fn truncated_trace_section_is_rejected() {
        let ranked = vec![(PoiId(1), 0.5)];
        let mut chain = TraceChain::new(7);
        chain.stamp(Hop::Router, 10);
        let mut b = encode_update_traced(1, 1, &ranked, Some(&chain));
        b.pop();
        assert!(decode_update(&b).is_err());
    }
}
