//! The shared visited-state store behind the checker's wave barrier —
//! abstract, with an in-memory fast path and a disk-backed campaign
//! implementation.
//!
//! [`drain_pattern`](crate::checker) folds every wave's task tables into
//! one shared store at the wave barrier and lets later waves prune
//! against it. The checker only ever needs two operations — the
//! subset-rule query ([`CampaignStore::covers`]) and the wave-barrier
//! fold ([`CampaignStore::absorb`]) — so the store is a trait. Both
//! implementations are one sharded layout ([`Sharded`], partitioned by
//! [`shard_of`](crate::visited::shard_of)) over different shard tables:
//!
//! * The in-memory store is a `Sharded<Visited>` of
//!   [`SHARDS`](crate::visited::SHARDS) shards. The drain is generic, not
//!   dynamic, so it pays no indirection and no persistence cost.
//! * [`DiskStore`] is a `Sharded<Shard>` of `--campaign-shards` shards,
//!   each an append-log mirrored by an in-memory `Visited` table
//!   ([`super::shard`]), making the store durable and the campaign
//!   resumable.
//!
//! Both implementations maintain the same *minimal antichain* per
//! fingerprint (insertions drop stored supersets), and minimal-set
//! semantics are merge-order independent — so `covers` answers, and with
//! them every verdict and counter, are identical across stores. The
//! `campaign_resume` integration suite pins that equivalence.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::checker::SleepEntry;
use crate::visited::{Partitioned, ShardTable, Sharded};

use super::shard::Shard;

/// The shared visited-state store of one crash pattern's exploration.
///
/// Implementations must preserve minimal-antichain semantics: after any
/// sequence of [`CampaignStore::absorb`] calls, [`CampaignStore::covers`]
/// answers exactly as one [`Visited`](crate::visited::Visited) table fed
/// the same tables through
/// [`Visited::merge`](crate::visited::Visited::merge) would. The checker's determinism contract
/// (byte-identical verdicts, counters and counterexamples for every
/// thread count *and every store*) rests on that equivalence.
pub trait CampaignStore {
    /// The subset-rule query: was `fingerprint` expanded under a sleep
    /// set contained in `sleep`?
    fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool;

    /// The shard count tables must be
    /// [partitioned](crate::visited::Visited::partition) for before
    /// [`CampaignStore::absorb`] takes them.
    fn shard_count(&self) -> usize;

    /// Folds one wave's task tables in at the wave barrier, on up to
    /// `threads` workers: per shard, the tables in claim order (their
    /// order in `wave`) and each table's entries in its index order.
    /// Entries already covered are skipped; new entries drop their stored
    /// supersets, keeping each fingerprint's antichain minimal.
    fn absorb(&mut self, wave: &[Partitioned], threads: usize);

    /// Minimal entries currently stored (occupancy, for reporting).
    fn entries(&self) -> u64;
}

impl<T: ShardTable> CampaignStore for Sharded<T> {
    fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        Sharded::covers(self, fingerprint, sleep)
    }

    fn shard_count(&self) -> usize {
        self.tables().len()
    }

    fn absorb(&mut self, wave: &[Partitioned], threads: usize) {
        self.fold(wave, threads);
    }

    fn entries(&self) -> u64 {
        self.live_entries()
    }
}

/// FNV-1a over `bytes` — the checksum/config-digest hash of the campaign
/// file formats. Deliberately byte-wise and dependency-free; these are
/// integrity checks, not dedup keys, so the avalanche quality debate of
/// `PERFORMANCE.md` does not apply.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends a little-endian `u64` to a byte buffer (the wire helper every
/// campaign file format shares).
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads the little-endian `u64` at `*at`, advancing it; `None` past the
/// end (truncation shows up as a decode error, never a panic).
pub(crate) fn take_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let chunk = bytes.get(*at..end)?;
    *at = end;
    Some(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
}

/// Occupancy summary of a [`DiskStore`], for manifests and progress
/// output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreOccupancy {
    /// Minimal entries live across all shard tables.
    pub entries: u64,
    /// Durable log bytes across all shards (excludes unflushed appends).
    pub log_bytes: u64,
    /// Log records across all shards, including superseded ones
    /// compaction would drop.
    pub log_records: u64,
}

/// The disk-backed campaign store: a [`Sharded`] store of [`Shard`]s,
/// each an append-log file plus an in-memory
/// [`Visited`](crate::visited::Visited) table, and the directory and log
/// generation around them.
///
/// Durability protocol (see `CAMPAIGNS.md` for the full story):
///
/// * [`CampaignStore::absorb`] updates the in-memory tables and buffers
///   serialized records; nothing touches disk between checkpoints.
/// * [`DiskStore::flush`] appends the buffers to the current
///   **generation** of log files and returns the `(generation,
///   watermarks)` a snapshot must record. Compaction and the per-pattern
///   reset write a *new* generation instead of mutating the old one, so
///   a crash at any byte leaves the previously-snapshotted generation
///   intact.
/// * [`DiskStore::open`] truncates each log to its snapshotted watermark
///   (discarding post-snapshot appends) and deletes stray generations.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    generation: u64,
    shards: Sharded<Shard>,
}

impl DiskStore {
    /// Creates a fresh store of `shards` shards (generation 0, empty
    /// logs) under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects a zero shard count.
    pub fn create(dir: &Path, shards: usize) -> io::Result<Self> {
        if shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a campaign needs at least one shard",
            ));
        }
        fs::create_dir_all(dir)?;
        let store = DiskStore {
            dir: dir.to_path_buf(),
            generation: 0,
            shards: Sharded::new(shards),
        };
        for index in 0..shards {
            fs::write(store.log_path(index, 0), [])?;
        }
        Ok(store)
    }

    /// Opens the store a snapshot describes: truncates each
    /// `generation`-generation log to its watermark, loads the surviving
    /// records into the shard tables, and deletes logs of any other
    /// generation (leftovers of a crash between a generation switch and
    /// its snapshot, or between a snapshot and its cleanup).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails with [`io::ErrorKind::InvalidData`]
    /// if a log is shorter than its watermark or ends in a torn record
    /// below it (the snapshot then describes data that does not exist).
    pub fn open(dir: &Path, generation: u64, watermarks: &[u64]) -> io::Result<Self> {
        let mut store = DiskStore {
            dir: dir.to_path_buf(),
            generation,
            shards: Sharded::new(watermarks.len()),
        };
        for (index, &watermark) in watermarks.iter().enumerate() {
            let path = store.log_path(index, generation);
            let bytes = fs::read(&path).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("shard log {} unreadable: {e}", path.display()),
                )
            })?;
            if (bytes.len() as u64) < watermark {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard log {} is {} bytes, below its snapshot watermark {}",
                        path.display(),
                        bytes.len(),
                        watermark
                    ),
                ));
            }
            if (bytes.len() as u64) > watermark {
                // Appends that post-date the snapshot: discard them so the
                // resumed exploration re-derives them deterministically.
                let file = fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(watermark)?;
            }
            store.shards.tables_mut()[index].load(&bytes[..watermark as usize], &path)?;
        }
        store.delete_other_generations()?;
        Ok(store)
    }

    /// Appends every shard's buffered records to the current generation's
    /// logs — compacting into a fresh generation instead when a log has
    /// grown well past its live contents — and returns the
    /// `(generation, watermarks)` pair the caller's snapshot must record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush(&mut self) -> io::Result<(u64, Vec<u64>)> {
        if self.shards.tables().iter().any(Shard::wants_compaction) {
            self.rewrite_generation()?;
        } else {
            for index in 0..self.shard_count() {
                let path = self.log_path(index, self.generation);
                self.shards.tables_mut()[index].flush_to(&path)?;
            }
        }
        Ok((self.generation, self.watermarks()))
    }

    /// Compacts every shard: rewrites the logs as a fresh generation
    /// containing only the live minimal entries. Returns the new
    /// `(generation, watermarks)`; the caller must write a snapshot
    /// recording them before [`DiskStore::cleanup`] may delete the old
    /// generation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn compact(&mut self) -> io::Result<(u64, Vec<u64>)> {
        self.rewrite_generation()?;
        Ok((self.generation, self.watermarks()))
    }

    /// Clears the store for the next crash pattern: empties every shard
    /// table and starts a fresh (empty) log generation. The old
    /// generation stays on disk until [`DiskStore::cleanup`] runs after
    /// the pattern-boundary snapshot is durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn reset(&mut self) -> io::Result<()> {
        for shard in self.shards.tables_mut() {
            shard.clear();
        }
        self.rewrite_generation()
    }

    /// Deletes log files of every generation other than the current one.
    /// Call only after a snapshot recording the current generation has
    /// been durably renamed into place.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn cleanup(&self) -> io::Result<()> {
        self.delete_other_generations()
    }

    /// Occupancy counters for manifests and progress reporting.
    pub fn occupancy(&self) -> StoreOccupancy {
        let shards = self.shards.tables();
        StoreOccupancy {
            entries: self.shards.live_entries(),
            log_bytes: shards.iter().map(Shard::log_bytes).sum(),
            log_records: shards.iter().map(Shard::log_records).sum(),
        }
    }

    /// Number of shards (fixed at campaign creation).
    pub fn shard_count(&self) -> usize {
        self.shards.tables().len()
    }

    /// Every shard's durable log bytes, in shard order.
    fn watermarks(&self) -> Vec<u64> {
        self.shards.tables().iter().map(Shard::log_bytes).collect()
    }

    fn log_path(&self, index: usize, generation: u64) -> PathBuf {
        self.dir
            .join(format!("shard-{index:03}.gen-{generation}.log"))
    }

    /// Writes every shard's live entries as generation `current + 1`
    /// (write-temp-then-rename per shard), then switches to it. Buffers
    /// are implicitly flushed: live tables already contain them.
    fn rewrite_generation(&mut self) -> io::Result<()> {
        let next = self.generation + 1;
        for index in 0..self.shard_count() {
            let path = self.log_path(index, next);
            self.shards.tables_mut()[index].rewrite_to(&path)?;
        }
        self.generation = next;
        Ok(())
    }

    fn delete_other_generations(&self) -> io::Result<()> {
        let keep: Vec<PathBuf> = (0..self.shard_count())
            .map(|i| self.log_path(i, self.generation))
            .collect();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard-") && name.ends_with(".log") {
                let path = entry.path();
                if !keep.contains(&path) {
                    fs::remove_file(&path)?;
                }
            }
        }
        Ok(())
    }
}

impl CampaignStore for DiskStore {
    fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        self.shards.covers(fingerprint, sleep)
    }

    fn shard_count(&self) -> usize {
        DiskStore::shard_count(self)
    }

    fn absorb(&mut self, wave: &[Partitioned], threads: usize) {
        self.shards.fold(wave, threads);
    }

    fn entries(&self) -> u64 {
        self.shards.live_entries()
    }
}

#[cfg(test)]
mod tests {
    use kset_prop::SplitMix64;

    use super::*;
    use crate::visited::{shard_of, with_bitmap, Visited};

    #[test]
    fn parallel_wave_fold_writes_the_serial_log_bytes() {
        const SHARDS: usize = 5;
        // Few distinct fingerprints, so later tables hit earlier buckets
        // and subsets replace stored supersets.
        let waves = || -> Vec<Vec<Visited>> {
            let mut rng = SplitMix64::new(11);
            let fingerprints: Vec<u64> = (0..300).map(|_| rng.next_u64()).collect();
            let mut table = || {
                let mut table = Visited::default();
                for _ in 0..rng.next_u64() % 120 {
                    let fingerprint = fingerprints[(rng.next_u64() % 300) as usize];
                    let ids: Vec<u64> = (0..rng.next_u64() % 4).map(|_| rng.next_u64() % 20).collect();
                    with_bitmap(ids.into_iter(), |set| table.absorb_bits(fingerprint, set));
                }
                table
            };
            (0..6).map(|wave| (0..1 + wave % 4).map(|_| table()).collect()).collect()
        };
        let root = std::env::temp_dir().join(format!("kset_store_fold_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        // The per-entry serial absorb: every table in claim order, its
        // entries in index order, each into its shard.
        let mut serial: Vec<Shard> = (0..SHARDS).map(|_| Shard::new()).collect();
        let serial_dir = root.join("serial");
        fs::create_dir_all(&serial_dir).unwrap();
        for table in waves().iter().flatten() {
            for (fingerprint, bucket) in table.buckets() {
                let shard = &mut serial[shard_of(fingerprint, SHARDS)];
                for set in bucket.sets() {
                    set.with_bits(|bits| shard.absorb_bits(fingerprint, bits));
                }
            }
        }
        for (index, shard) in serial.iter_mut().enumerate() {
            shard.flush_to(&serial_dir.join(format!("{index}.log"))).unwrap();
        }
        for threads in [1, 2, 3, 7] {
            let dir = root.join(format!("threads-{threads}"));
            let mut store = DiskStore::create(&dir, SHARDS).unwrap();
            for wave in waves() {
                let parts: Vec<Partitioned> =
                    wave.into_iter().map(|table| table.partition(SHARDS)).collect();
                store.absorb(&parts, threads);
            }
            assert_eq!(store.flush().unwrap().0, 0, "no compaction");
            for index in 0..SHARDS {
                assert_eq!(
                    fs::read(store.log_path(index, 0)).unwrap(),
                    fs::read(serial_dir.join(format!("{index}.log"))).unwrap(),
                    "shard {index} at {threads} threads"
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }
}
