//! The disk side of a campaign's visited store: the shard log files, their
//! generations, and the integrity helpers every campaign file shares.
//!
//! A campaign explores on the checker's one pattern loop
//! ([`crate::checker::check_cell`]'s), over a
//! [`Sharded`] store of `--campaign-shards` [`Shard`]s instead of the
//! in-memory store's [`SHARDS`](crate::visited::SHARDS) `Visited` tables.
//! Both stores are one layout ([`Sharded`], partitioned by
//! [`shard_of`](crate::visited::shard_of)), folded at each wave barrier in
//! the same order, and both keep the same *minimal antichain* per
//! fingerprint (insertions drop stored supersets), so `covers` answers,
//! and with them every verdict and counter, are identical across stores.
//! The `campaign_resume` integration suite pins that equivalence.
//!
//! Each shard is an append-log mirrored by an in-memory `Visited` table
//! ([`super::shard`]). [`DiskStore`] keeps only what the logs need beside
//! those tables: the campaign directory and the current log generation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::visited::Sharded;

use super::shard::Shard;

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

/// The log-file bookkeeping of a campaign's [`Sharded`] store of
/// [`Shard`]s: the directory the shard logs live in and their current
/// generation. The shards themselves are lent to the checker's pattern
/// loop, and every method here takes them as an argument.
///
/// Durability protocol (see `CAMPAIGNS.md` for the full story):
///
/// * A wave-barrier [`Sharded::fold`] updates the in-memory tables and
///   buffers serialized records; nothing touches disk between
///   checkpoints.
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
}

impl DiskStore {
    /// Creates a fresh store of `shards` shards (generation 0, empty
    /// logs) under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects a zero shard count.
    pub fn create(dir: &Path, shards: usize) -> io::Result<(Self, Sharded<Shard>)> {
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
        };
        for index in 0..shards {
            fs::write(store.log_path(index, 0), [])?;
        }
        Ok((store, Sharded::new(shards)))
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
    pub fn open(
        dir: &Path,
        generation: u64,
        watermarks: &[u64],
    ) -> io::Result<(Self, Sharded<Shard>)> {
        let store = DiskStore {
            dir: dir.to_path_buf(),
            generation,
        };
        let mut shards = Sharded::<Shard>::new(watermarks.len());
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
            shards.tables_mut()[index].load(&bytes[..watermark as usize], &path)?;
        }
        store.cleanup(&shards)?;
        Ok((store, shards))
    }

    /// Appends every shard's buffered records to the current generation's
    /// logs — compacting into a fresh generation instead when a log has
    /// grown well past its live contents — and returns the
    /// `(generation, watermarks)` pair the caller's snapshot must record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush(&mut self, shards: &mut Sharded<Shard>) -> io::Result<(u64, Vec<u64>)> {
        if shards.tables().iter().any(Shard::wants_compaction) {
            self.rewrite_generation(shards)?;
        } else {
            for (index, shard) in shards.tables_mut().iter_mut().enumerate() {
                shard.flush_to(&self.log_path(index, self.generation))?;
            }
        }
        let watermarks = shards.tables().iter().map(Shard::log_bytes).collect();
        Ok((self.generation, watermarks))
    }

    /// Clears the store for the next crash pattern: empties every shard
    /// table and starts a fresh (empty) log generation. The old
    /// generation stays on disk until [`DiskStore::cleanup`] runs after
    /// the pattern-boundary snapshot is durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn reset(&mut self, shards: &mut Sharded<Shard>) -> io::Result<()> {
        for shard in shards.tables_mut() {
            shard.clear();
        }
        self.rewrite_generation(shards)
    }

    /// Deletes log files of every generation other than the current one.
    /// Call only after a snapshot recording the current generation has
    /// been durably renamed into place.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn cleanup(&self, shards: &Sharded<Shard>) -> io::Result<()> {
        let keep: Vec<PathBuf> = (0..shards.shard_count())
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

    fn log_path(&self, index: usize, generation: u64) -> PathBuf {
        self.dir
            .join(format!("shard-{index:03}.gen-{generation}.log"))
    }

    /// Writes every shard's live entries as generation `current + 1`
    /// (write-temp-then-rename per shard), then switches to it. Buffers
    /// are implicitly flushed: live tables already contain them.
    fn rewrite_generation(&mut self, shards: &mut Sharded<Shard>) -> io::Result<()> {
        let next = self.generation + 1;
        for (index, shard) in shards.tables_mut().iter_mut().enumerate() {
            shard.rewrite_to(&self.log_path(index, next))?;
        }
        self.generation = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use kset_prop::SplitMix64;

    use super::*;
    use crate::visited::{shard_of, with_bitmap, Partitioned, Visited};

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
            let (mut store, mut shards) = DiskStore::create(&dir, SHARDS).unwrap();
            for wave in waves() {
                let parts: Vec<Partitioned> =
                    wave.into_iter().map(|table| table.partition(SHARDS)).collect();
                shards.fold(&parts, threads);
            }
            assert_eq!(store.flush(&mut shards).unwrap().0, 0, "no compaction");
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
