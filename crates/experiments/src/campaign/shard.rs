//! One hash partition of the disk-backed visited store: an append-log
//! file mirrored by an in-memory [`Visited`] table.
//!
//! The table maps a 64-bit state fingerprint to the minimal antichain of
//! sleep sets it was expanded under, exactly as the checker's in-memory
//! store does; it indexes fingerprints by their low bits, while the shard
//! *partition* uses high bits ([`crate::visited::shard_of`]), so the two
//! never correlate. A [`super::store::DiskStore`] is a
//! [`crate::visited::Sharded`] store of these shards, folded at each wave
//! barrier shard by shard in parallel: a shard absorbs its entries in the
//! same order for every worker count, so its log bytes are
//! thread-count independent too.
//!
//! The log is append-only between checkpoints: an insertion that
//! supersedes earlier entries (a subset arriving after its supersets)
//! only edits the in-memory antichain; the stale records stay in the log
//! and are re-minimized on load. That is sound because extra supersets
//! can never change a `covers` answer — any query a superset covers, its
//! subset covers too — and it keeps the durable write path a pure append.
//! Compaction ([`Shard::rewrite_to`]) rewrites the log from the live
//! table when the stale fraction grows, as part of a generation switch.
//!
//! A record is `[fingerprint][count][(id, target) × count]`, every field
//! a little-endian `u64`. The table keeps event ids only, so `target` is
//! written as `0` and ignored on load; logs written when it still carried
//! the event's target process load unchanged.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use crate::checker::{SleepEntry, Visited};
use crate::visited::{ids_of, with_bitmap, Set, ShardTable};

use super::store::{put_u64, take_u64};

/// Compact once a log holds this many records *and* more than four times
/// the live entry count (i.e. is at least 3/4 stale).
const COMPACT_MIN_RECORDS: u64 = 1 << 14;

/// One shard: the in-memory table plus the bookkeeping of its on-disk
/// append log (the file itself is owned by [`super::store::DiskStore`],
/// which hands paths in).
#[derive(Debug, Default)]
pub struct Shard {
    table: Visited,
    /// Serialized records absorbed since the last flush.
    pending: Vec<u8>,
    pending_records: u64,
    /// Durable bytes in the current log file (the snapshot watermark).
    log_bytes: u64,
    /// Records in the current log file, including superseded ones.
    log_records: u64,
}

impl Shard {
    /// An empty shard with no log bookkeeping.
    pub fn new() -> Self {
        Shard::default()
    }

    /// The subset-rule query,
    /// [`Visited::covers`](crate::checker::Visited::covers) on the
    /// shard's table.
    pub fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        self.table.covers(fingerprint, sleep)
    }

    /// Absorbs one entry: skipped if covered, otherwise inserted (stored
    /// supersets dropped, keeping the antichain minimal) and buffered for
    /// the next log flush. Returns whether the entry was new.
    pub fn absorb(&mut self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        with_bitmap(ids_of(sleep), |set| self.absorb_bits(fingerprint, set))
    }

    /// [`Shard::absorb`] for an already-encoded set bitmap.
    pub(crate) fn absorb_bits(&mut self, fingerprint: u64, set: &[u64]) -> bool {
        if !self.table.absorb_bits(fingerprint, set) {
            return false;
        }
        encode_record(&mut self.pending, fingerprint, Set::Bits(set));
        self.pending_records += 1;
        true
    }

    /// Live minimal entries in the table.
    pub fn live_entries(&self) -> u64 {
        self.table.live_entries()
    }

    /// Durable log bytes (the watermark a snapshot records). Unflushed
    /// pending records are *not* counted — they are not durable.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Records written to the current log, including superseded ones.
    pub fn log_records(&self) -> u64 {
        self.log_records
    }

    /// Whether the log is mostly stale records a compaction would drop.
    pub fn wants_compaction(&self) -> bool {
        let total = self.log_records + self.pending_records;
        total >= COMPACT_MIN_RECORDS && total > 4 * self.live_entries()
    }

    /// Empties the table and forgets the log (the caller starts a fresh
    /// generation).
    pub fn clear(&mut self) {
        self.table = Visited::default();
        self.pending.clear();
        self.pending_records = 0;
        self.log_bytes = 0;
        self.log_records = 0;
    }

    /// Appends the pending records to `path` (the current generation's
    /// log) and advances the durable watermark.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush_to(&mut self, path: &Path) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(&self.pending)?;
        file.sync_data()?;
        self.log_bytes += self.pending.len() as u64;
        self.log_records += self.pending_records;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Rewrites the shard as a fresh log at `path` containing exactly the
    /// live minimal entries (write-temp-then-rename), resetting the log
    /// bookkeeping to the compacted contents. Pending records are part of
    /// the live table, so they are implicitly flushed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn rewrite_to(&mut self, path: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        for (fingerprint, bucket) in self.table.buckets() {
            for set in bucket.sets() {
                encode_record(&mut out, fingerprint, set);
            }
        }
        let tmp = path.with_extension("log.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&out)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        self.log_bytes = out.len() as u64;
        self.log_records = self.table.live_entries();
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Loads `bytes` (a log truncated to its snapshot watermark) into the
    /// table, re-minimizing as it goes — stale supersets the append-only
    /// log kept are dropped again here. `path` is for error messages.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a torn record below the
    /// watermark (the snapshot then references data that was never fully
    /// written — a corrupt campaign directory).
    pub fn load(&mut self, bytes: &[u8], path: &Path) -> io::Result<()> {
        let mut at = 0;
        let mut records = 0u64;
        let mut ids = Vec::new();
        while at < bytes.len() {
            let record_start = at;
            let torn = move || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard log {} has a torn record at byte {record_start} below the watermark",
                        path.display()
                    ),
                )
            };
            let fingerprint = take_u64(bytes, &mut at).ok_or_else(torn)?;
            let len = take_u64(bytes, &mut at).ok_or_else(torn)? as usize;
            ids.clear();
            for _ in 0..len {
                ids.push(take_u64(bytes, &mut at).ok_or_else(torn)?);
                take_u64(bytes, &mut at).ok_or_else(torn)?; // target, unused
            }
            with_bitmap(ids.iter().copied(), |set| {
                self.table.absorb_bits(fingerprint, set)
            });
            records += 1;
        }
        self.log_bytes = bytes.len() as u64;
        self.log_records = records;
        Ok(())
    }
}

impl ShardTable for Shard {
    fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        Shard::covers(self, fingerprint, sleep)
    }

    fn absorb_bits(&mut self, fingerprint: u64, set: &[u64]) -> bool {
        Shard::absorb_bits(self, fingerprint, set)
    }

    fn table(&self) -> &Visited {
        &self.table
    }

    /// The table's resident bytes plus the records not yet flushed.
    fn resident_bytes(&self) -> u64 {
        self.table.resident_bytes() + self.pending.len() as u64
    }
}

/// Serializes one `(fingerprint, sleep set)` log record, ids ascending
/// and every `target` zero.
fn encode_record(out: &mut Vec<u8>, fingerprint: u64, set: Set<'_>) {
    put_u64(out, fingerprint);
    put_u64(out, set.ids().count() as u64);
    for id in set.ids() {
        put_u64(out, id);
        put_u64(out, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_sim::EventId;

    fn entry(id: u64, target: usize) -> SleepEntry {
        SleepEntry {
            id: EventId::from_u64(id),
            target,
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kset_shard_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_matches_visited_semantics() {
        // Feed the same entry sequence into a shard and a Visited table;
        // covers answers must coincide, including superset dropping.
        let mut shard = Shard::new();
        let mut visited = Visited::default();
        let sequences: Vec<(u64, Vec<SleepEntry>)> = vec![
            (7, vec![entry(1, 0), entry(2, 1)]),
            (7, vec![entry(1, 0)]), // subset supersedes the first
            (7, vec![entry(3, 2)]),
            (9, vec![]),
            (u64::MAX, vec![entry(4, 0)]),
        ];
        for (fp, sleep) in &sequences {
            if !visited.covers(*fp, sleep) {
                visited.insert(*fp, sleep);
            }
            shard.absorb(*fp, sleep);
        }
        let queries: Vec<(u64, Vec<SleepEntry>)> = vec![
            (7, vec![entry(1, 0), entry(2, 1), entry(3, 2)]),
            (7, vec![entry(2, 1)]),
            (7, vec![entry(1, 0)]),
            (9, vec![entry(99, 3)]),
            (8, vec![]),
            (u64::MAX, vec![entry(4, 0)]),
        ];
        for (fp, sleep) in &queries {
            assert_eq!(
                shard.covers(*fp, sleep),
                visited.covers(*fp, sleep),
                "fp={fp} sleep={sleep:?}"
            );
        }
        // The subset insert dropped its superset: 7 has {1},{3}; 9 has {};
        // MAX has {4}.
        assert_eq!(shard.live_entries(), 4);
    }

    #[test]
    fn many_fingerprints_survive_table_growth() {
        let mut shard = Shard::new();
        for fp in 0..5000u64 {
            // Low bits collide heavily with a 1024-slot table; growth and
            // probing must keep every entry findable.
            assert!(shard.absorb(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15), &[entry(fp, 0)]));
        }
        for fp in 0..5000u64 {
            let key = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert!(shard.covers(key, &[entry(fp, 0), entry(fp + 1, 1)]));
            assert!(!shard.covers(key, &[entry(fp + 1, 1)]));
        }
        assert_eq!(shard.live_entries(), 5000);
    }

    #[test]
    fn flush_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let log = dir.join("shard.log");
        fs::write(&log, []).unwrap();
        let mut shard = Shard::new();
        for fp in 0..200u64 {
            shard.absorb(fp << 40 | fp, &[entry(fp, (fp % 5) as usize)]);
        }
        shard.absorb(1 << 40 | 1, &[]); // empty set supersedes fp=1's entry
        shard.flush_to(&log).unwrap();
        let watermark = shard.log_bytes();
        assert_eq!(watermark, fs::metadata(&log).unwrap().len());

        let mut reloaded = Shard::new();
        reloaded.load(&fs::read(&log).unwrap(), &log).unwrap();
        assert_eq!(reloaded.live_entries(), shard.live_entries());
        for fp in 0..200u64 {
            let key = fp << 40 | fp;
            assert_eq!(
                reloaded.covers(key, &[entry(fp, 0)]),
                shard.covers(key, &[entry(fp, 0)]),
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_round_trips_and_shrinks() {
        let dir = tmp_dir("compact");
        let log = dir.join("shard.log");
        fs::write(&log, []).unwrap();
        let mut shard = Shard::new();
        // Append supersets first, then the subsets that supersede them:
        // the log keeps both, the table only the minimal set.
        for fp in 0..100u64 {
            shard.absorb(fp, &[entry(1, 0), entry(2, 1), entry(3, 2)]);
            shard.absorb(fp, &[entry(1, 0), entry(2, 1)]);
            shard.absorb(fp, &[entry(1, 0)]);
        }
        shard.flush_to(&log).unwrap();
        let appended = shard.log_bytes();
        assert_eq!(shard.log_records(), 300);
        assert_eq!(shard.live_entries(), 100);

        let compacted = dir.join("shard-compacted.log");
        shard.rewrite_to(&compacted).unwrap();
        assert!(shard.log_bytes() < appended);
        assert_eq!(shard.log_records(), 100);

        // The compacted log loads back to an equivalent table.
        let mut reloaded = Shard::new();
        reloaded
            .load(&fs::read(&compacted).unwrap(), &compacted)
            .unwrap();
        assert_eq!(reloaded.live_entries(), 100);
        for fp in 0..100u64 {
            assert!(reloaded.covers(fp, &[entry(1, 0), entry(9, 9)]));
            assert!(!reloaded.covers(fp, &[entry(2, 1), entry(3, 2)]));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_record_below_watermark_is_invalid_data() {
        let dir = tmp_dir("torn");
        let log = dir.join("shard.log");
        let mut shard = Shard::new();
        shard.absorb(42, &[entry(1, 0), entry(2, 1)]);
        fs::write(&log, []).unwrap();
        shard.flush_to(&log).unwrap();
        let bytes = fs::read(&log).unwrap();
        for cut in [bytes.len() - 3, bytes.len() - 8, 7, 17] {
            let mut torn = Shard::new();
            let err = torn.load(&bytes[..cut], &log).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut={cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_trigger_tracks_staleness() {
        let mut shard = Shard::new();
        assert!(!shard.wants_compaction());
        // One live entry superseding a pile of stale ones.
        for round in 0..(COMPACT_MIN_RECORDS + 8) {
            let sleep: Vec<SleepEntry> =
                (0..2).map(|i| entry(round * 2 + i, 0)).collect();
            shard.absorb(5, &sleep);
        }
        shard.absorb(5, &[]);
        assert!(shard.wants_compaction());
    }
}
