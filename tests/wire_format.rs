//! Wire-format pins: the bytes every protocol codec writes.
//!
//! Each case builds its expected payload by hand, field by field in the
//! documented little-endian layout, and asserts that the encoder writes
//! exactly those bytes and that the decoder reads them back to the
//! original value. A change that moves a byte fails here even when the
//! encoder and decoder change together (both swapping `ts` and `te`,
//! say), so recorded replay logs and older clients keep parsing. Every
//! `pub fn encode_*`/`decode_*` in `protocol.rs` must be called by some
//! case, so a new codec cannot land without its bytes pinned.
//!
//! The same payloads drive the decoders' robustness checks:
//!
//! * every strict prefix and every single-bit flip decodes to a value or
//!   a typed error, never a panic, and never allocates more than a few
//!   KiB;
//! * a strict prefix is an error, except the one that ends exactly where
//!   an optional trailing section starts (the `SUBSCRIBE` resume section
//!   and the `UPDATE` trace section);
//! * a count field set to `u32::MAX` is an error before anything is
//!   allocated for it.
//!
//! One frame envelope and one `IFRPL001` replay log holding every `Op`
//! kind are pinned as well.

use inflow::indoor::{DeviceId, PoiId};
use inflow::obs::{Hop, TraceChain};
use inflow::replay::{BarrierRecord, FaultEvent, FaultKind, Op, ReplayLog, REPLAY_MAGIC};
use inflow::service::protocol::{self, tag, StateHash, SubKind, SubSpec};
use inflow::tracking::store::frame::fnv1a;
use inflow::tracking::{ObjectId, OttRow, RawReading};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Debug;
use std::io;
use std::panic::{self, AssertUnwindSafe};

/// The system allocator, recording the largest request made on the
/// current thread, so a decode can be shown not to size a buffer from a
/// corrupt count.
struct Probe;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the probe only
// records the request size in a thread-local without a destructor.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// The largest allocation a decode of a golden payload, or of a
/// mutation of one, may make. The payloads are under 200 bytes, so a
/// request near this size was sized from a count, not from bytes present.
const ALLOC_BOUND: usize = 4096;

/// A payload written by hand from its documented layout.
#[derive(Default)]
struct Le {
    bytes: Vec<u8>,
    /// Byte offsets of the `u32` element counts.
    counts: Vec<usize>,
    /// Where an optional trailing section starts, if the payload has one.
    optional_at: Option<usize>,
}

impl Le {
    fn u8(mut self, v: u8) -> Le {
        self.bytes.push(v);
        self
    }

    fn u32(mut self, v: u32) -> Le {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn u64(mut self, v: u64) -> Le {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn f64(mut self, v: f64) -> Le {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// A `u32` element count.
    fn count(mut self, n: u32) -> Le {
        self.counts.push(self.bytes.len());
        self.u32(n)
    }

    /// The subscription trailer: `k u32 | epsilon f64 | n u32 | n × poi u32`.
    fn trailer(self, k: u32, epsilon: f64, pois: &[u32]) -> Le {
        let le = self.u32(k).f64(epsilon).count(pois.len() as u32);
        pois.iter().fold(le, |le, &poi| le.u32(poi))
    }

    /// Marks the start of an optional trailing section.
    fn optional(mut self) -> Le {
        self.optional_at = Some(self.bytes.len());
        self
    }
}

/// One codec pair pinned on one value.
struct Case {
    name: &'static str,
    /// The source text of the encode and decode expressions.
    codecs: &'static str,
    /// What the encoder wrote for the value.
    encoded: Vec<u8>,
    /// The payload built by hand.
    expected: Le,
    /// `{:?}` of the value. `Debug` prints floats in their shortest
    /// round-trip form, so equal text means equal bits.
    value: String,
    decode: Decode,
}

/// A decoder returning `{:?}` of what it read.
type Decode = Box<dyn Fn(&[u8]) -> io::Result<String>>;

/// Builds a [`Case`], recording the text of its codec expressions so
/// [`every_protocol_codec_has_a_golden_case`] can see which it calls.
macro_rules! case {
    ($name:expr, $value:expr, $encode:expr, $decode:expr, $expected:expr $(,)?) => {
        case(
            $name,
            concat!(stringify!($encode), " ", stringify!($decode)),
            $value,
            $encode,
            $decode,
            $expected,
        )
    };
}

fn case<T: Debug + 'static>(
    name: &'static str,
    codecs: &'static str,
    value: T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> io::Result<T>,
    expected: Le,
) -> Case {
    Case {
        name,
        codecs,
        encoded: encode(&value),
        expected,
        value: format!("{value:?}"),
        decode: Box::new(move |b| decode(b).map(|v| format!("{v:?}"))),
    }
}

fn reading(object: u32, device: u32, t: f64) -> RawReading {
    RawReading { object: ObjectId(object), device: DeviceId(device), t }
}

fn row(object: u32, device: u32, ts: f64, te: f64) -> OttRow {
    OttRow { object: ObjectId(object), device: DeviceId(device), ts, te }
}

fn spec(kind: SubKind, k: usize, epsilon: f64, pois: &[u32]) -> SubSpec {
    SubSpec { kind, k, epsilon, pois: pois.iter().copied().map(PoiId).collect() }
}

/// A chain with every hop stamped at `1000 + code` ns.
fn full_chain(id: u64) -> TraceChain {
    let mut chain = TraceChain::new(id);
    for h in Hop::ALL {
        chain.stamp(h, 1000 + u64::from(h.code()));
    }
    chain
}

/// Every codec pair of `protocol.rs`, each subscription kind, and both
/// forms of the payloads with an optional trailing section.
fn cases() -> Vec<Case> {
    use protocol::*;
    let ranked = vec![(PoiId(4), 1.25), (PoiId(0), 0.5)];
    let mut traced = Le::default().u64(9).u64(3).count(1).u32(4).f64(1.25).optional().u64(42).u8(7);
    for code in 0..7u8 {
        traced = traced.u8(code).u64(1000 + u64::from(code));
    }
    vec![
        // PUBLISH: count u32 | count × (object u32 | device u32 | t f64).
        case!(
            "publish",
            vec![reading(7, 2, 1.5), reading(1, 0, 2.25)],
            |r| encode_publish(r),
            decode_publish,
            Le::default().count(2).u32(7).u32(2).f64(1.5).u32(1).u32(0).f64(2.25),
        ),
        // SUBSCRIBE / QUERY: kind u8 | kind params | k u32 | epsilon f64 |
        // n u32 | n × poi u32. Kinds 0/1 keep their exact v1 layout.
        case!(
            "subspec snapshot",
            spec(SubKind::Snapshot { t: 42.0 }, 1, 0.0, &[]),
            encode_subspec,
            decode_subspec,
            Le::default().u8(0).f64(42.0).f64(0.0).trailer(1, 0.0, &[]),
        ),
        case!(
            "subspec interval",
            spec(SubKind::Interval { ts: 10.0, te: 90.0 }, 5, 0.25, &[3]),
            encode_subspec,
            decode_subspec,
            Le::default().u8(1).f64(10.0).f64(90.0).trailer(5, 0.25, &[3]),
        ),
        case!(
            "subspec distrib",
            spec(SubKind::Distrib { t: 120.0, kq: 3, kmax: 16 }, 4, 0.125, &[5, 0, 2]),
            encode_subspec,
            decode_subspec,
            Le::default().u8(2).f64(120.0).u32(3).u32(16).trailer(4, 0.125, &[5, 0, 2]),
        ),
        case!(
            "subspec longvisit",
            spec(SubKind::LongVisit { ts: 10.0, te: 90.0, d: 12.5 }, 4, 0.125, &[5, 0, 2]),
            encode_subspec,
            decode_subspec,
            Le::default().u8(3).f64(10.0).f64(90.0).f64(12.5).trailer(4, 0.125, &[5, 0, 2]),
        ),
        // SUBSCRIBE (v3): the subspec, then optionally
        // last_seq u64 | last_hash u64.
        case!(
            "subscribe",
            (spec(SubKind::Snapshot { t: 42.0 }, 3, 0.5, &[2]), None),
            |(s, r)| encode_subscribe(s, r.as_ref()),
            decode_subscribe,
            Le::default().u8(0).f64(42.0).f64(0.0).trailer(3, 0.5, &[2]),
        ),
        case!(
            "subscribe longvisit resume",
            (
                spec(SubKind::LongVisit { ts: 10.0, te: 90.0, d: 12.5 }, 3, 0.5, &[2]),
                Some(Resume { last_seq: 17, last_hash: 0xDEAD_BEEF }),
            ),
            |(s, r)| encode_subscribe(s, r.as_ref()),
            decode_subscribe,
            Le::default()
                .u8(3)
                .f64(10.0)
                .f64(90.0)
                .f64(12.5)
                .trailer(3, 0.5, &[2])
                .optional()
                .u64(17)
                .u64(0xDEAD_BEEF),
        ),
        case!(
            "subscribe distrib resume",
            (
                spec(SubKind::Distrib { t: 120.0, kq: 3, kmax: 16 }, 4, 0.125, &[5, 0, 2]),
                Some(Resume { last_seq: 9, last_hash: 0xF00D }),
            ),
            |(s, r)| encode_subscribe(s, r.as_ref()),
            decode_subscribe,
            Le::default()
                .u8(2)
                .f64(120.0)
                .u32(3)
                .u32(16)
                .trailer(4, 0.125, &[5, 0, 2])
                .optional()
                .u64(9)
                .u64(0xF00D),
        ),
        // RESULT: count u32 | count × (poi u32 | flow f64).
        case!(
            "ranked",
            ranked.clone(),
            |r| encode_ranked(r),
            decode_ranked,
            Le::default().count(2).u32(4).f64(1.25).u32(0).f64(0.5),
        ),
        // UPDATE (v1): sub_id u64 | seq u64 | ranked.
        case!(
            "update",
            (9, 3, ranked, None),
            |(sub, seq, r, _)| encode_update(*sub, *seq, r),
            decode_update,
            Le::default().u64(9).u64(3).count(2).u32(4).f64(1.25).u32(0).f64(0.5),
        ),
        // UPDATE (v2): the v1 payload, then optionally
        // trace_id u64 | hops u8 | hops × (code u8 | at_ns u64).
        case!(
            "update traced",
            (9, 3, vec![(PoiId(4), 1.25)], Some(full_chain(42))),
            |(sub, seq, r, trace)| encode_update_traced(*sub, *seq, r, trace.as_ref()),
            decode_update,
            traced,
        ),
        // ROWS: count u32 | count × (object u32 | device u32 | ts f64 | te f64).
        case!(
            "rows",
            vec![row(7, 2, 1.5, 9.0), row(1, 0, 2.25, 4.0)],
            |r| encode_rows(r),
            decode_rows,
            Le::default().count(2).u32(7).u32(2).f64(1.5).f64(9.0).u32(1).u32(0).f64(2.25).f64(4.0),
        ),
        // SUB_ACK / UNSUBSCRIBE / CURRENT: one u64 id.
        case!(
            "u64",
            0x0102_0304_0506_0708,
            |&v| encode_u64(v),
            decode_u64,
            Le::default().u64(0x0102_0304_0506_0708),
        ),
        // HASH: engine u64 | n u32 | n × shard u64.
        case!(
            "state_hash",
            StateHash { engine: 7, shards: vec![1, 2, 3] },
            encode_state_hash,
            decode_state_hash,
            Le::default().u64(7).count(3).u64(1).u64(2).u64(3),
        ),
        // HELLO / HELLO_ACK: one u32 protocol version.
        case!("u32", PROTOCOL_VERSION, |&v| encode_u32(v), decode_u32, Le::default().u32(4)),
    ]
}

/// Decodes `bytes` with `case`'s decoder and says whether it decoded.
/// A panic, or an allocation above [`ALLOC_BOUND`], fails the test.
fn decodes(case: &Case, what: &str, bytes: &[u8]) -> bool {
    LARGEST.with(|m| m.set(0));
    let got = panic::catch_unwind(AssertUnwindSafe(|| (case.decode)(bytes)));
    let largest = LARGEST.with(|m| m.get());
    let got = got.unwrap_or_else(|_| panic!("{} {what}: decoder panicked", case.name));
    assert!(largest <= ALLOC_BOUND, "{} {what}: decoder allocated {largest} bytes", case.name);
    got.is_ok()
}

#[test]
fn every_codec_writes_its_documented_bytes() {
    for case in cases() {
        assert_eq!(case.encoded, case.expected.bytes, "{}: encoder moved a byte", case.name);
        let decoded = (case.decode)(&case.expected.bytes)
            .unwrap_or_else(|e| panic!("{}: golden payload rejected: {e}", case.name));
        assert_eq!(decoded, case.value, "{}: decoder misread the golden payload", case.name);
    }
}

#[test]
fn every_protocol_codec_has_a_golden_case() {
    let called: HashSet<&str> = cases()
        .iter()
        .flat_map(|c| c.codecs.split(|ch: char| !(ch.is_alphanumeric() || ch == '_')))
        .collect();
    let source = include_str!("../crates/service/src/protocol.rs");
    let codecs: Vec<&str> = source
        .lines()
        .filter_map(|line| line.strip_prefix("pub fn "))
        .map(|rest| rest.split(['(', '<']).next().unwrap_or(rest))
        .filter(|name| name.starts_with("encode_") || name.starts_with("decode_"))
        .collect();
    assert!(!codecs.is_empty(), "no codec found in protocol.rs");
    for name in codecs {
        assert!(called.contains(name), "protocol::{name} has no golden case");
    }
}

#[test]
fn strict_prefixes_are_typed_errors_except_before_an_optional_section() {
    for case in cases() {
        let bytes = &case.expected.bytes;
        for len in 0..bytes.len() {
            let ok = decodes(&case, &format!("prefix {len}"), &bytes[..len]);
            let optional_start = case.expected.optional_at == Some(len);
            assert_eq!(ok, optional_start, "{}: prefix of {len} bytes decoded: {ok}", case.name);
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    for case in cases() {
        let mut bytes = case.expected.bytes.clone();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            decodes(&case, &format!("bit {bit}"), &bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn inflated_counts_are_rejected_before_allocating() {
    let mut inflated = 0;
    for case in cases() {
        for &at in &case.expected.counts {
            let mut bytes = case.expected.bytes.clone();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let ok = decodes(&case, &format!("count at {at}"), &bytes);
            assert!(!ok, "{}: count u32::MAX at byte {at} decoded", case.name);
            inflated += 1;
        }
    }
    assert_eq!(inflated, 13, "every count field of the table is inflated once");
}

#[test]
fn frame_envelope_is_tag_len_payload_crc() {
    let payload = protocol::encode_u32(4);
    let mut buf = Vec::new();
    protocol::write_frame(&mut buf, tag::HELLO, &payload).unwrap();
    let want = Le::default().u8(10).u32(4).u32(4).u32(0x780F_079D);
    assert_eq!(buf, want.bytes, "frame envelope moved a byte");
    let read = protocol::read_frame(&mut buf.as_slice()).unwrap();
    assert_eq!(read, Some((tag::HELLO, payload)));
}

#[test]
fn replay_log_bytes_are_pinned_and_parse_back() {
    let mut log = ReplayLog::new(11, 2);
    log.ops.push(Op::Publish(vec![reading(7, 2, 1.5)]));
    log.ops.push(Op::Subscribe(spec(SubKind::Interval { ts: 10.0, te: 90.0 }, 5, 0.25, &[3])));
    log.ops.push(Op::Barrier(BarrierRecord {
        index: 1,
        hash: StateHash { engine: 0xABCD, shards: vec![5, 6] },
    }));
    log.ops.push(Op::Fault(FaultEvent { at_op: 3, kind: FaultKind::TornWal(1) }));
    let bytes = log.to_bytes();
    assert!(bytes.starts_with(REPLAY_MAGIC));
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (188, 0xFA69_B908_BFBE_13DE),
        "replay log moved a byte"
    );
    let parsed = ReplayLog::parse(&bytes).unwrap();
    assert_eq!(parsed.meta, log.meta);
    assert_eq!(format!("{:?}", parsed.ops), format!("{:?}", log.ops));
    assert_eq!(parsed.to_bytes(), bytes);
}
