//! # ddrs-wal — per-shard epoch write-ahead log
//!
//! The dynamization scheme already serializes every mutation into
//! epochs of merged delete+insert batches, so the WAL record **is the
//! committed epoch itself**: the global commit seq of its first
//! committed op, the per-op verdicts, and the exact delete/insert
//! batches the shard's worker applied (see
//! [`EpochRecord`]). Load and migration events use the same record with
//! no verdicts. The framing (length prefix + CRC-32, [`encode_record`]) makes
//! the log self-delimiting and torn-tail-safe: [`decode_log`] stops
//! cleanly at the first incomplete or corrupt frame and returns exactly
//! the epochs that fully committed.
//!
//! ## Write path
//!
//! The shard router appends **log-before-resolve**: a committed epoch
//! is appended to every involved shard's [`EpochWal`] after the workers
//! acknowledge the apply but *before* any client ticket resolves, so a
//! crash between commit and resolution never yields a response the log
//! cannot reproduce. Appends go through a [`LogSink`] — in-memory by
//! default, optionally file-backed — with fsync-free append-buffer
//! semantics ([`MemSink`], [`FileSink`]).
//!
//! ## Recovery
//!
//! [`replay_into_store`] folds a decoded record sequence into a fresh
//! `DynamicDistRangeTree`, applying each record's deletes before its
//! inserts (the same order the live shard used). `ddrs-shard` builds
//! its `recover_shard()` on top of this: decode the quarantined shard's
//! log, rebuild the store on the shard's own `Machine`, re-derive the
//! id→shard ownership index from the live ids, and let the rebuilt
//! shard rejoin the service.

#![forbid(unsafe_code)]

pub mod frame;
mod sink;

pub use frame::{
    crc32, decode_log, encode_record, EpochRecord, LogTail, RecordKind, Verdict, FRAME_HEADER,
    MAX_FRAME_PAYLOAD, RECORD_VERSION,
};
pub use sink::{FileSink, LogSink, MemSink};

use std::io;

use ddrs_cgm::Machine;
use ddrs_check::TrackedMutex;
use ddrs_rangetree::DynamicDistRangeTree;

/// Cumulative append-side counters of one [`EpochWal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since the log was created.
    pub records: u64,
    /// Total frame bytes appended (headers included).
    pub bytes: u64,
}

struct WalInner {
    sink: Box<dyn LogSink>,
    stats: WalStats,
}

/// One shard's write-ahead log: an append-only sequence of
/// [`EpochRecord`] frames behind a tracked mutex (lock class
/// `wal.append`, ordered after the router's `shard.faults` and before
/// every telemetry lock — see `ddrs-check`'s canonical order).
pub struct EpochWal<const D: usize> {
    append: TrackedMutex<WalInner>,
}

impl<const D: usize> EpochWal<D> {
    /// A log backed by the default in-memory sink.
    pub fn in_memory() -> Self {
        Self::with_sink(Box::new(MemSink::new()))
    }

    /// A log backed by a caller-provided sink (e.g. [`FileSink`]).
    pub fn with_sink(sink: Box<dyn LogSink>) -> Self {
        EpochWal {
            append: TrackedMutex::new("wal.append", WalInner { sink, stats: WalStats::default() }),
        }
    }

    /// Append one record; returns the frame size in bytes. An `Err`
    /// means the sink rejected the write — the caller must treat the
    /// epoch as failed (the log no longer reproduces the store).
    pub fn append_record(&self, rec: &EpochRecord<D>) -> io::Result<u64> {
        let frame = encode_record(rec);
        let mut inner = self.append.lock();
        inner.sink.append(&frame)?;
        inner.stats.records += 1;
        inner.stats.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Append-side counters (records / bytes appended so far).
    pub fn stats(&self) -> WalStats {
        self.append.lock().stats
    }

    /// Raw log bytes appended so far.
    pub fn snapshot_bytes(&self) -> io::Result<Vec<u8>> {
        self.append.lock().sink.snapshot()
    }

    /// Decode every fully-committed record appended so far, plus the
    /// tail verdict ([`LogTail::Clean`] unless the sink was damaged).
    pub fn replay(&self) -> io::Result<(Vec<EpochRecord<D>>, LogTail)> {
        let bytes = self.snapshot_bytes()?;
        Ok(decode_log(&bytes))
    }
}

impl<const D: usize> std::fmt::Debug for EpochWal<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EpochWal")
            .field("records", &stats.records)
            .field("bytes", &stats.bytes)
            .finish()
    }
}

/// Rebuild a shard store by replaying `records` front to back on
/// `machine`: each record's deletes are applied before its inserts,
/// reproducing exactly the apply order of the live shard. `capacity`
/// must match the store the log was written against (it shapes the
/// logarithmic-method levels, not the contents).
pub fn replay_into_store<const D: usize>(
    machine: &Machine,
    capacity: usize,
    records: &[EpochRecord<D>],
) -> Result<DynamicDistRangeTree<D>, String> {
    let mut tree = DynamicDistRangeTree::new(capacity);
    for (i, rec) in records.iter().enumerate() {
        if !rec.deletes.is_empty() {
            tree.delete_batch(machine, &rec.deletes)
                .map_err(|e| format!("wal replay: delete batch of record {i} failed: {e}"))?;
        }
        if !rec.inserts.is_empty() {
            tree.insert_batch(machine, &rec.inserts)
                .map_err(|e| format!("wal replay: insert batch of record {i} failed: {e}"))?;
        }
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_rangetree::Point;

    fn rec(first_seq: u64, ids: std::ops::Range<u32>) -> EpochRecord<2> {
        EpochRecord {
            kind: RecordKind::Epoch,
            first_seq,
            verdicts: vec![Verdict::Commit, Verdict::Rejected],
            deletes: vec![7, 9],
            inserts: ids
                .map(|i| Point::weighted([i as i64, -(i as i64)], i, 1 + u64::from(i) % 5))
                .collect(),
        }
    }

    #[test]
    fn roundtrip_single_record() {
        let r = rec(42, 100..110);
        let frame = encode_record(&r);
        let (out, tail) = decode_log::<2>(&frame);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(out, vec![r]);
    }

    #[test]
    fn roundtrip_many_records_and_kinds() {
        let mut bytes = Vec::new();
        let records = vec![
            EpochRecord::event(RecordKind::Load, 0, vec![], vec![Point::weighted([1, 2], 1, 3)]),
            rec(5, 10..13),
            EpochRecord::event(RecordKind::MigrateOut, 9, vec![10, 11], vec![]),
            EpochRecord::event(RecordKind::MigrateIn, 9, vec![], vec![Point::new([4, 4], 50)]),
        ];
        for r in &records {
            bytes.extend(encode_record(r));
        }
        let (out, tail) = decode_log::<2>(&bytes);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(out, records);
    }

    #[test]
    fn empty_log_is_clean() {
        let (out, tail) = decode_log::<2>(&[]);
        assert!(out.is_empty());
        assert_eq!(tail, LogTail::Clean);
    }

    #[test]
    fn torn_tail_at_every_offset_keeps_complete_prefix() {
        let complete = [rec(0, 0..4), rec(2, 4..9)];
        let mut bytes = Vec::new();
        for r in &complete {
            bytes.extend(encode_record(r));
        }
        let last_start = encode_record(&complete[0]).len();
        for cut in 0..(bytes.len() - last_start) {
            let torn = &bytes[..last_start + cut];
            let (out, tail) = decode_log::<2>(torn);
            assert_eq!(out, vec![complete[0].clone()], "cut at +{cut}");
            if cut == 0 {
                assert_eq!(tail, LogTail::Clean);
            } else {
                assert_eq!(tail, LogTail::Torn { offset: last_start }, "cut at +{cut}");
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_and_never_partial_apply() {
        let complete = [rec(0, 0..4), rec(2, 4..9)];
        let mut bytes = Vec::new();
        for r in &complete {
            bytes.extend(encode_record(r));
        }
        let last_start = encode_record(&complete[0]).len();
        for i in last_start..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[i] ^= 1 << bit;
                let (out, tail) = decode_log::<2>(&damaged);
                // The first record must always survive; the damaged one
                // must never be partially reconstructed.
                assert!(!out.is_empty(), "flip {i}.{bit} lost the clean prefix");
                assert_eq!(out[0], complete[0], "flip {i}.{bit}");
                if out.len() == 2 {
                    // A flip that still decodes must decode to
                    // *something structurally complete*; it can only be
                    // the original if the flip landed in slack we don't
                    // have — so require tail-clean equality.
                    assert_eq!(tail, LogTail::Clean);
                } else {
                    assert_ne!(tail, LogTail::Clean, "flip {i}.{bit} silently dropped a record");
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_alloc() {
        let mut bytes = encode_record(&rec(0, 0..2));
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (out, tail) = decode_log::<2>(&bytes);
        assert!(out.is_empty());
        assert!(matches!(tail, LogTail::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn wrong_dimension_is_corrupt() {
        let bytes = encode_record(&rec(0, 0..2));
        let (out, tail) = decode_log::<3>(&bytes);
        assert!(out.is_empty());
        assert!(matches!(tail, LogTail::Corrupt { .. }));
    }

    #[test]
    fn wal_appends_and_replays_through_mem_sink() {
        let wal = EpochWal::<2>::in_memory();
        let records = [rec(0, 0..3), rec(7, 3..6)];
        let mut bytes = 0;
        for r in &records {
            bytes += wal.append_record(r).expect("mem sink append");
        }
        let stats = wal.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.bytes, bytes);
        let (out, tail) = wal.replay().expect("mem sink replay");
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(out, records);
    }

    #[test]
    fn file_sink_roundtrip_and_reopen() {
        let path = std::env::temp_dir().join(format!("ddrs-wal-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let records = [rec(0, 0..3), rec(7, 3..6)];
        {
            let wal =
                EpochWal::<2>::with_sink(Box::new(FileSink::create(&path).expect("create sink")));
            wal.append_record(&records[0]).expect("file append");
            wal.append_record(&records[1]).expect("file append");
            let (out, tail) = wal.replay().expect("file replay");
            assert_eq!(tail, LogTail::Clean);
            assert_eq!(out, records);
        }
        // Re-open after "restart": existing bytes survive, appends land
        // after them.
        let wal = EpochWal::<2>::with_sink(Box::new(FileSink::open(&path).expect("open sink")));
        let extra = rec(20, 6..8);
        wal.append_record(&extra).expect("file append after reopen");
        let (out, tail) = wal.replay().expect("file replay after reopen");
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(out, vec![records[0].clone(), records[1].clone(), extra]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_rebuilds_store_with_epoch_order() {
        let machine = Machine::new(2).expect("machine");
        let records = vec![
            EpochRecord::event(
                RecordKind::Load,
                0,
                vec![],
                (0..20).map(|i| Point::weighted([i, i * 2], i as u32, 1)).collect(),
            ),
            // One epoch deletes 0..5 and re-inserts 3 with a new weight:
            // the delete must apply first or the insert collides.
            EpochRecord {
                kind: RecordKind::Epoch,
                first_seq: 0,
                verdicts: vec![Verdict::Commit; 6],
                deletes: vec![0, 1, 2, 3, 4],
                inserts: vec![Point::weighted([3, 6], 3, 9)],
            },
        ];
        let tree = replay_into_store::<2>(&machine, 4, &records).expect("replay");
        assert_eq!(tree.len(), 16);
        assert!(tree.contains_id(3));
        assert!(!tree.contains_id(4));
        let p3 = tree.points().find(|p| p.id == 3).expect("point 3");
        assert_eq!(p3.weight, 9);
    }
}
