//! Binary framing of epoch records, and the frame primitives shared
//! with `ddrs-net`'s wire codec.
//!
//! # Frame layout
//!
//! Every record (and every wire message) is one length-prefixed,
//! checksummed frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length `len`, u32 little-endian
//! 4       4     CRC-32 (IEEE polynomial, reflected) of the payload
//! 8       len   payload
//! ```
//!
//! # Payload layout
//!
//! All integers little-endian:
//!
//! ```text
//! u8            record-format version (currently 1)
//! u8            record kind (0 load, 1 epoch, 2 migrate-out, 3 migrate-in)
//! u8            dimension D (cross-checked on decode)
//! u64           first_seq — global commit seq of the first committed op
//! u32 V         verdict count, then V bytes (0 commit, 1 rejected,
//!               2 unavailable)
//! u32 N         delete count, then N × u32 point ids
//! u32 M         insert count, then M × (u32 id, u64 weight, D × i64
//!               coords)
//! ```
//!
//! # Replay invariants
//!
//! [`decode_log`] walks frames front to back and **stops cleanly at the
//! first incomplete or corrupt frame**: every record before the bad
//! frame is returned, the bad frame and everything after it is
//! discarded, and the [`LogTail`] reports where and why the walk
//! stopped. A torn tail (partial final frame after a crash mid-append)
//! therefore recovers exactly the epochs that fully committed — never a
//! partial epoch, never a panic. Decoding never reads past the buffer
//! and rejects frames whose declared length exceeds
//! [`MAX_FRAME_PAYLOAD`].
//!
//! # Shared primitives
//!
//! [`crc32`], [`put_u32`], [`put_u64`], [`encode_frame`] and the
//! bounds-checked [`Reader`] are the one definition of the frame idiom;
//! the wire codec builds on them and keeps only its own payload layout
//! and its own (smaller) payload cap.

use ddrs_rangetree::Point;

/// Current record-format version byte.
pub const RECORD_VERSION: u8 = 1;

/// Bytes of frame header preceding every payload (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a sane payload length; a declared length above this
/// is treated as corruption rather than an allocation request.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// What a logged record represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Initial bulk load of the shard at service start.
    Load,
    /// A committed client write epoch (merged delete+insert batches).
    Epoch,
    /// Points migrated out of this shard by a split/rebalance.
    MigrateOut,
    /// Points migrated into this shard by a split/rebalance.
    MigrateIn,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Load => 0,
            RecordKind::Epoch => 1,
            RecordKind::MigrateOut => 2,
            RecordKind::MigrateIn => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(RecordKind::Load),
            1 => Some(RecordKind::Epoch),
            2 => Some(RecordKind::MigrateOut),
            3 => Some(RecordKind::MigrateIn),
            _ => None,
        }
    }
}

/// Per-op outcome of a committed write epoch, in submission order.
/// Committed ops consume global seqs `first_seq, first_seq+1, …` in
/// this order; rejected/unavailable ops consume none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The op committed and consumed a global seq.
    Commit,
    /// The op was rejected by sequential validation (duplicate id,
    /// reserved id, unknown id).
    Rejected,
    /// The op addressed a quarantined shard.
    Unavailable,
}

impl Verdict {
    fn to_byte(self) -> u8 {
        match self {
            Verdict::Commit => 0,
            Verdict::Rejected => 1,
            Verdict::Unavailable => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Verdict::Commit),
            1 => Some(Verdict::Rejected),
            2 => Some(Verdict::Unavailable),
            _ => None,
        }
    }
}

/// One write-ahead log record: a committed epoch (or load/migration
/// event) exactly as the router applied it to the shard's store.
///
/// Replay applies `deletes` before `inserts`, matching the epoch apply
/// order on the live shard (extract then insert), so replaying a log
/// front to back reproduces the store byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord<const D: usize> {
    /// What this record represents.
    pub kind: RecordKind,
    /// Global commit seq of the epoch's first committed op (forensic;
    /// load/migration records carry the router's next seq at the time).
    pub first_seq: u64,
    /// Per-op outcomes in submission order (empty for load/migration).
    pub verdicts: Vec<Verdict>,
    /// Ids deleted from this shard's store by the epoch.
    pub deletes: Vec<u32>,
    /// Points inserted into this shard's store by the epoch.
    pub inserts: Vec<Point<D>>,
}

impl<const D: usize> EpochRecord<D> {
    /// A record with no verdicts — load and migration events.
    pub fn event(
        kind: RecordKind,
        first_seq: u64,
        deletes: Vec<u32>,
        inserts: Vec<Point<D>>,
    ) -> Self {
        EpochRecord { kind, first_seq, verdicts: Vec::new(), deletes, inserts }
    }
}

/// Why and where [`decode_log`] stopped walking the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogTail {
    /// The stream ended exactly on a frame boundary.
    Clean,
    /// The final frame is incomplete — a crash mid-append. `offset` is
    /// where the torn frame starts.
    Torn {
        /// Byte offset of the incomplete frame's header.
        offset: usize,
    },
    /// A complete frame failed its checksum or structural validation.
    Corrupt {
        /// Byte offset of the corrupt frame's header.
        offset: usize,
        /// Human-readable reason (checksum mismatch, bad version, …).
        reason: String,
    },
}

/// CRC-32 (IEEE 802.3 polynomial, reflected, init/xorout `!0`) — the
/// ubiquitous `crc32` of zlib/gzip, implemented bitwise to stay
/// dependency-free. Corruption detection only; not cryptographic.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c: u32 = !0;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
        }
    }
    !c
}

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Wrap `payload` in a frame: length prefix, CRC-32, payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(payload));
    frame.extend_from_slice(payload);
    frame
}

/// Encode one record as a complete frame (header + payload), ready to
/// append to a sink.
pub fn encode_record<const D: usize>(rec: &EpochRecord<D>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(
        32 + rec.verdicts.len() + 4 * rec.deletes.len() + (12 + 8 * D) * rec.inserts.len(),
    );
    payload.push(RECORD_VERSION);
    payload.push(rec.kind.to_byte());
    payload.push(D as u8);
    put_u64(&mut payload, rec.first_seq);
    put_u32(&mut payload, rec.verdicts.len() as u32);
    payload.extend(rec.verdicts.iter().map(|v| v.to_byte()));
    put_u32(&mut payload, rec.deletes.len() as u32);
    for id in &rec.deletes {
        put_u32(&mut payload, *id);
    }
    put_u32(&mut payload, rec.inserts.len() as u32);
    for p in &rec.inserts {
        put_u32(&mut payload, p.id);
        put_u64(&mut payload, p.weight);
        for c in &p.coords {
            payload.extend_from_slice(&c.to_le_bytes());
        }
    }
    encode_frame(&payload)
}

/// Cursor over a payload with bounds-checked little-endian reads: every
/// accessor returns `None` instead of reading past the buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Next little-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Next little-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Next little-endian i64.
    pub fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }
}

fn decode_payload<const D: usize>(payload: &[u8]) -> Result<EpochRecord<D>, String> {
    let mut r = Reader::new(payload);
    let version = r.u8().ok_or("payload shorter than version byte")?;
    if version != RECORD_VERSION {
        return Err(format!("unknown record version {version}"));
    }
    let kind = r.u8().and_then(RecordKind::from_byte).ok_or("bad record kind")?;
    let dim = r.u8().ok_or("payload shorter than dimension byte")?;
    if usize::from(dim) != D {
        return Err(format!("record dimension {dim} != store dimension {D}"));
    }
    let first_seq = r.u64().ok_or("truncated first_seq")?;
    let nv = r.u32().ok_or("truncated verdict count")? as usize;
    if nv > payload.len() {
        return Err("verdict count exceeds payload".into());
    }
    let mut verdicts = Vec::with_capacity(nv);
    for _ in 0..nv {
        let v = r.u8().and_then(Verdict::from_byte).ok_or("bad verdict byte")?;
        verdicts.push(v);
    }
    let nd = r.u32().ok_or("truncated delete count")? as usize;
    if nd.saturating_mul(4) > payload.len() {
        return Err("delete count exceeds payload".into());
    }
    let mut deletes = Vec::with_capacity(nd);
    for _ in 0..nd {
        deletes.push(r.u32().ok_or("truncated delete id")?);
    }
    let ni = r.u32().ok_or("truncated insert count")? as usize;
    if ni.saturating_mul(12 + 8 * D) > payload.len() {
        return Err("insert count exceeds payload".into());
    }
    let mut inserts = Vec::with_capacity(ni);
    for _ in 0..ni {
        let id = r.u32().ok_or("truncated insert id")?;
        let weight = r.u64().ok_or("truncated insert weight")?;
        let mut coords = [0i64; D];
        for c in &mut coords {
            *c = r.i64().ok_or("truncated insert coord")?;
        }
        inserts.push(Point::weighted(coords, id, weight));
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    Ok(EpochRecord { kind, first_seq, verdicts, deletes, inserts })
}

/// Decode a whole log byte stream into the records that fully
/// committed, stopping cleanly at the first torn or corrupt frame (see
/// the module docs for the exact invariants). Never panics on
/// attacker-controlled or crash-damaged input.
pub fn decode_log<const D: usize>(bytes: &[u8]) -> (Vec<EpochRecord<D>>, LogTail) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            return (records, LogTail::Torn { offset: pos });
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_FRAME_PAYLOAD {
            return (
                records,
                LogTail::Corrupt { offset: pos, reason: format!("frame length {len} exceeds cap") },
            );
        }
        let stored_crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        let len = len as usize;
        if remaining - FRAME_HEADER < len {
            return (records, LogTail::Torn { offset: pos });
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != stored_crc {
            return (records, LogTail::Corrupt { offset: pos, reason: "checksum mismatch".into() });
        }
        match decode_payload::<D>(payload) {
            Ok(rec) => records.push(rec),
            Err(reason) => return (records, LogTail::Corrupt { offset: pos, reason }),
        }
        pos += FRAME_HEADER + len;
    }
    (records, LogTail::Clean)
}
