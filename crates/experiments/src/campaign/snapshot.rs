//! Atomic campaign checkpoints: the snapshot file format.
//!
//! A snapshot captures a campaign at a wave boundary — the only moment
//! the exploration state is both quiescent and a pure function of the
//! initial task queue (see [`crate::engine::parallel_drain_watched`]):
//! the verdicts of every finished crash pattern, and the partial verdict,
//! outstanding task queue and visited store of the in-progress pattern.
//! Restoring them resumes the campaign bit-identically. A snapshot taken
//! at a pattern boundary has no in-progress pattern and holds no store:
//! every pattern starts from a fresh one.
//!
//! The format is little-endian `u64` words behind a magic/version header
//! carrying the campaign's config digest — a counterexample's message is
//! zero-padded to whole words — with a trailing checksum over every word
//! before it: FNV-1a, a word rather than a byte at a time. The store's
//! records,
//! `[fingerprint][bucket length][bucket words…]` as
//! [`Sharded::write_records`] writes them, fill the rest of the body after
//! the task queue. The writer streams them through the checksum, so a
//! checkpoint holds no second copy of the store; the reader checks the
//! checksum, then every record, before it builds a table, and folds them
//! back with [`Sharded::fold`]. Durability is write-temp-then-rename: a
//! crash mid-write leaves at worst a stale `.tmp` next to the previous
//! intact snapshot, never a half-written `snapshot.bin`; a torn or
//! bit-flipped file fails the checksum and reads as
//! [`std::io::ErrorKind::InvalidData`] instead of resuming from garbage.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use kset_sim::{Deviation, EventId};

use crate::checker::{Counterexample, PatternState, PatternVerdict, SleepEntry, WorkItem};
use crate::visited::{Partitioned, Sharded, SHARDS};

use super::UnsupportedVersion;

/// First 8 bytes of every snapshot file.
const MAGIC: &[u8; 8] = b"KSETCKPT";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing. v2 added the Byzantine
/// slot list and per-fired-event deviations to serialized
/// counterexamples (the adversary-model work); v3 replaced the shard-log
/// generation and watermarks with the in-progress pattern's store; v4
/// dropped each work item's preemption count.
pub(crate) const SNAPSHOT_VERSION: u64 = 4;

/// File name of the current snapshot inside a campaign directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";

/// FNV-1a offset basis: the hash of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` — the campaign's config digest
/// ([`super::manifest::config_digest`]). Deliberately dependency-free;
/// this is an integrity check, not a dedup key, so the avalanche quality
/// debate of `PERFORMANCE.md` does not apply.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The snapshot checksum: FNV-1a continued from `hash` over the
/// little-endian words of `bytes`, a whole number of words. A changed
/// word always changes it, as a changed byte changes byte-wise FNV-1a.
fn checksum(hash: u64, bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0, "snapshots are whole words");
    bytes.chunks_exact(8).fold(hash, |hash, word| {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        (hash ^ word).wrapping_mul(FNV_PRIME)
    })
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

/// The resumable state of a campaign at one wave boundary.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// Digest of the exploration-relevant checker configuration
    /// ([`super::manifest::config_digest`]); a resume under a different
    /// configuration is refused.
    pub(crate) config_digest: u64,
    /// Verdicts of the fault patterns finished so far, in
    /// [`crate::checker::CheckerConfig::fault_plans`] order.
    pub(crate) patterns_done: Vec<PatternVerdict>,
    /// The in-progress pattern's accumulated verdict, outstanding task
    /// queue and visited store; `None` at a pattern boundary (the next
    /// pattern re-seeds).
    pub(crate) in_progress: Option<(PatternState, Sharded)>,
}

/// The in-progress pattern a snapshot records: its verdict so far, its
/// outstanding task queue and its visited store.
pub(crate) type InProgress<'a> = (&'a PatternVerdict, &'a VecDeque<Vec<WorkItem>>, &'a Sharded);

/// `path` of the snapshot inside campaign directory `dir`.
pub(crate) fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// A writer that keeps the [`checksum`] and the count of everything
/// written through it.
struct Checksummed<W> {
    out: W,
    hash: u64,
    bytes: u64,
}

impl<W: Write> Checksummed<W> {
    /// Writes `buf` through, and empties it for the next piece.
    fn drain(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        self.hash = checksum(self.hash, buf);
        self.bytes += buf.len() as u64;
        self.out.write_all(buf)?;
        buf.clear();
        Ok(())
    }
}

/// Serializes and durably writes the snapshot of `patterns_done` and
/// `in_progress` as `dir/snapshot.bin` (write-temp-then-rename,
/// checksummed), one verdict, work item or store record at a time, so it
/// never buffers the snapshot whole; returns the file's size.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn write_snapshot(
    dir: &Path,
    config_digest: u64,
    patterns_done: &[PatternVerdict],
    in_progress: Option<InProgress<'_>>,
) -> io::Result<u64> {
    let path = snapshot_path(dir);
    let tmp = dir.join("snapshot.bin.tmp");
    let mut out = Checksummed {
        out: BufWriter::with_capacity(1 << 16, fs::File::create(&tmp)?),
        hash: FNV_OFFSET,
        bytes: 0,
    };
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, SNAPSHOT_VERSION);
    put_u64(&mut buf, config_digest);
    put_u64(&mut buf, patterns_done.len() as u64);
    for verdict in patterns_done {
        encode_verdict(&mut buf, verdict);
        out.drain(&mut buf)?;
    }
    put_u64(&mut buf, u64::from(in_progress.is_some()));
    if let Some((verdict, queue, store)) = in_progress {
        encode_verdict(&mut buf, verdict);
        put_u64(&mut buf, queue.len() as u64);
        for stack in queue {
            put_u64(&mut buf, stack.len() as u64);
            for item in stack {
                encode_work_item(&mut buf, item);
                out.drain(&mut buf)?;
            }
        }
        store.write_records(|record| {
            for &word in record {
                put_u64(&mut buf, word);
            }
            out.drain(&mut buf)
        })?;
    }
    out.drain(&mut buf)?;
    put_u64(&mut buf, out.hash);
    out.drain(&mut buf)?;
    let file = out
        .out
        .into_inner()
        .map_err(io::IntoInnerError::into_error)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    Ok(out.bytes)
}

/// Reads and validates `dir/snapshot.bin`, folding the in-progress
/// pattern's store back on `threads` workers.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when no snapshot exists (nothing to
/// resume); [`io::ErrorKind::InvalidData`] on a bad magic, a checksum
/// mismatch (truncation or corruption), an unsupported version (an
/// [`UnsupportedVersion`] payload), a decode overrun, or a malformed
/// store record.
pub(crate) fn read_snapshot(dir: &Path, threads: usize) -> io::Result<Snapshot> {
    let path = snapshot_path(dir);
    let bytes = fs::read(&path)?;
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot {}: {msg}", path.display()),
        )
    };
    if bytes.len() < MAGIC.len() + 16 {
        return Err(bad("file too short for header and checksum"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(bad("bad magic (not a campaign snapshot)"));
    }
    let body = &bytes[..bytes.len() - 8];
    let mut tail = bytes.len() - 8;
    let stored = take_u64(&bytes, &mut tail).expect("8 trailing bytes");
    if bytes.len() % 8 != 0 || checksum(FNV_OFFSET, body) != stored {
        return Err(bad("checksum mismatch (truncated or corrupt)"));
    }
    let mut at = MAGIC.len();
    let next = |at: &mut usize| take_u64(body, at).ok_or_else(|| bad("decode ran past checksum"));
    let version = next(&mut at)?;
    if version != SNAPSHOT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            UnsupportedVersion {
                path: path.clone(),
                found: version,
                supported: SNAPSHOT_VERSION,
            },
        ));
    }
    let config_digest = next(&mut at)?;
    let done = next(&mut at)? as usize;
    let mut patterns_done = Vec::new();
    for _ in 0..done {
        patterns_done.push(decode_verdict(body, &mut at).ok_or_else(|| bad("bad verdict"))?);
    }
    let in_progress = match next(&mut at)? {
        0 if at == body.len() => None,
        0 => return Err(bad("trailing bytes after the decoded snapshot")),
        1 => {
            let verdict =
                decode_verdict(body, &mut at).ok_or_else(|| bad("bad partial verdict"))?;
            let stacks = next(&mut at)? as usize;
            let mut queue = Vec::new();
            for _ in 0..stacks {
                let len = next(&mut at)? as usize;
                let mut stack = Vec::new();
                for _ in 0..len {
                    stack
                        .push(decode_work_item(body, &mut at).ok_or_else(|| bad("bad work item"))?);
                }
                queue.push(stack);
            }
            let words = body[at..]
                .chunks_exact(8)
                .map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunk")))
                .collect();
            Some((PatternState { verdict, queue }, words))
        }
        other => return Err(bad(&format!("bad in-progress flag {other}"))),
    };
    drop(bytes);
    let in_progress = match in_progress {
        None => None,
        Some((state, words)) => {
            let records = Partitioned::from_records(words, SHARDS)
                .map_err(|e| bad(&format!("bad store {e}")))?;
            let mut store = Sharded::new(SHARDS);
            store.fold(&[records], threads);
            Some((state, store))
        }
    };
    Ok(Snapshot {
        config_digest,
        patterns_done,
        in_progress,
    })
}

/// Zero bytes that pad `len` bytes to whole words.
fn padding(len: usize) -> usize {
    len.wrapping_neg() % 8
}

fn put_usize_list(out: &mut Vec<u8>, list: &[usize]) {
    put_u64(out, list.len() as u64);
    for &v in list {
        put_u64(out, v as u64);
    }
}

fn take_usize_list(bytes: &[u8], at: &mut usize) -> Option<Vec<usize>> {
    let len = take_u64(bytes, at)? as usize;
    let mut list = Vec::new();
    for _ in 0..len {
        list.push(take_u64(bytes, at)? as usize);
    }
    Some(list)
}

fn encode_verdict(out: &mut Vec<u8>, verdict: &PatternVerdict) {
    put_usize_list(out, &verdict.crashed);
    put_u64(out, verdict.runs);
    put_u64(out, verdict.states as u64);
    put_u64(out, verdict.sleep_skips);
    put_u64(out, verdict.dedup_hits);
    put_u64(out, u64::from(verdict.complete));
    put_u64(out, verdict.worst_agreement as u64);
    put_u64(out, verdict.tasks);
    match &verdict.violation {
        None => put_u64(out, 0),
        Some(ce) => {
            put_u64(out, 1);
            put_usize_list(out, &ce.crashed);
            put_usize_list(out, &ce.byzantine);
            put_usize_list(out, &ce.choices);
            put_u64(out, ce.fired.len() as u64);
            for (id, deviation) in &ce.fired {
                put_u64(out, id.as_u64());
                let (tag, payload) = match deviation {
                    Deviation::Faithful => (0, 0),
                    Deviation::Forge(v) => (1, *v),
                    Deviation::Drop => (2, 0),
                };
                put_u64(out, tag);
                put_u64(out, payload);
            }
            let msg = ce.violation.as_bytes();
            put_u64(out, msg.len() as u64);
            out.extend_from_slice(msg);
            out.resize(out.len() + padding(msg.len()), 0);
        }
    }
}

fn decode_verdict(bytes: &[u8], at: &mut usize) -> Option<PatternVerdict> {
    let crashed = take_usize_list(bytes, at)?;
    let runs = take_u64(bytes, at)?;
    let states = take_u64(bytes, at)? as usize;
    let sleep_skips = take_u64(bytes, at)?;
    let dedup_hits = take_u64(bytes, at)?;
    let complete = take_u64(bytes, at)? != 0;
    let worst_agreement = take_u64(bytes, at)? as usize;
    let tasks = take_u64(bytes, at)?;
    let violation = match take_u64(bytes, at)? {
        0 => None,
        _ => {
            let ce_crashed = take_usize_list(bytes, at)?;
            let ce_byzantine = take_usize_list(bytes, at)?;
            let choices = take_usize_list(bytes, at)?;
            let fired_len = take_u64(bytes, at)? as usize;
            let mut fired = Vec::new();
            for _ in 0..fired_len {
                let id = EventId::from_u64(take_u64(bytes, at)?);
                let tag = take_u64(bytes, at)?;
                let payload = take_u64(bytes, at)?;
                let deviation = match tag {
                    0 => Deviation::Faithful,
                    1 => Deviation::Forge(payload),
                    2 => Deviation::Drop,
                    _ => return None,
                };
                fired.push((id, deviation));
            }
            let msg_len = take_u64(bytes, at)? as usize;
            let end = at.checked_add(msg_len)?;
            let msg = bytes.get(*at..end)?;
            let padded = end.checked_add(padding(msg_len))?;
            if bytes.get(end..padded)?.iter().any(|&b| b != 0) {
                return None;
            }
            *at = padded;
            Some(Counterexample {
                crashed: ce_crashed,
                byzantine: ce_byzantine,
                choices,
                fired,
                violation: String::from_utf8(msg.to_vec()).ok()?,
            })
        }
    };
    Some(PatternVerdict {
        crashed,
        runs,
        states,
        sleep_skips,
        dedup_hits,
        complete,
        worst_agreement,
        tasks,
        violation,
    })
}

fn encode_work_item(out: &mut Vec<u8>, item: &WorkItem) {
    put_usize_list(out, &item.prefix);
    put_u64(out, item.sleep.len() as u64);
    for entry in &item.sleep {
        put_u64(out, entry.id.as_u64());
        put_u64(out, entry.target as u64);
    }
}

fn decode_work_item(bytes: &[u8], at: &mut usize) -> Option<WorkItem> {
    let prefix = take_usize_list(bytes, at)?;
    let sleep_len = take_u64(bytes, at)? as usize;
    let mut sleep = Vec::new();
    for _ in 0..sleep_len {
        let id = take_u64(bytes, at)?;
        let target = take_u64(bytes, at)? as usize;
        sleep.push(SleepEntry {
            id: EventId::from_u64(id),
            target,
        });
    }
    Some(WorkItem { prefix, sleep })
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use kset_prop::{in_range, prop_assert, Runner};

    use super::*;
    use crate::checker::Visited;

    fn verdicts() -> Vec<PatternVerdict> {
        let violated = PatternVerdict {
            crashed: vec![0, 2],
            runs: 17,
            states: 5,
            sleep_skips: 3,
            dedup_hits: 2,
            complete: false,
            worst_agreement: 3,
            tasks: 4,
            violation: Some(Counterexample {
                crashed: vec![0, 2],
                byzantine: vec![1],
                choices: vec![3, 0, 1],
                fired: vec![
                    (EventId::from_u64(9), Deviation::Forge(7)),
                    (EventId::from_u64(4), Deviation::Faithful),
                    (EventId::from_u64(2), Deviation::Drop),
                ],
                violation: "agreement violated: 3 > 2 distinct values".to_string(),
            }),
        };
        let clean = PatternVerdict {
            crashed: vec![],
            runs: 1200,
            states: 450,
            sleep_skips: 80,
            dedup_hits: 33,
            complete: true,
            worst_agreement: 2,
            tasks: 21,
            violation: None,
        };
        vec![clean, violated]
    }

    fn partial() -> PatternVerdict {
        PatternVerdict {
            crashed: vec![1],
            runs: 64,
            states: 12,
            sleep_skips: 0,
            dedup_hits: 1,
            complete: true,
            worst_agreement: 1,
            tasks: 3,
            violation: None,
        }
    }

    fn entry(id: u64, target: usize) -> SleepEntry {
        SleepEntry {
            id: EventId::from_u64(id),
            target,
        }
    }

    fn queue() -> VecDeque<Vec<WorkItem>> {
        VecDeque::from([
            vec![WorkItem {
                prefix: vec![0, 2, 1],
                sleep: vec![entry(7, 2)],
            }],
            vec![
                WorkItem {
                    prefix: vec![4],
                    sleep: vec![],
                },
                WorkItem {
                    prefix: vec![],
                    sleep: vec![entry(1, 0), entry(2, 1)],
                },
            ],
        ])
    }

    /// A store of every bucket format: inline sets, wide bitmaps, and id
    /// lists (an id of 512 or more).
    fn store() -> Sharded {
        let mut table = Visited::default();
        for fp in 0..300u64 {
            let key = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            table.insert(key, &[entry(fp % 20, 0)]);
            if fp % 3 == 0 {
                table.insert(key, &[entry(fp % 7, 0), entry(100 + fp, 1)]);
            }
            if fp % 50 == 0 {
                table.insert(key, &[entry(600 + fp, 2)]);
            }
        }
        let mut store = Sharded::new(SHARDS);
        store.fold(&[table.partition(SHARDS)], 2);
        store
    }

    /// The store's content: every fingerprint's sets, as ascending ids.
    fn content(store: &Sharded) -> BTreeMap<u64, BTreeSet<Vec<u64>>> {
        store
            .tables()
            .iter()
            .flat_map(Visited::buckets)
            .map(|(fp, bucket)| (fp, bucket.sets().map(|set| set.ids().collect()).collect()))
            .collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kset_snapshot_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes the sample snapshot, the in-progress pattern included.
    fn write_sample(dir: &Path) -> u64 {
        let (partial, queue, store) = (partial(), queue(), store());
        write_snapshot(
            dir,
            0xdead_beef_cafe_f00d,
            &verdicts(),
            Some((&partial, &queue, &store)),
        )
        .unwrap()
    }

    /// `bytes` with its trailing checksum recomputed.
    fn rechecksummed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let sum = checksum(FNV_OFFSET, &bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("roundtrip");
        let written = write_sample(&dir);
        assert_eq!(written, fs::metadata(snapshot_path(&dir)).unwrap().len());
        let back = read_snapshot(&dir, 2).unwrap();
        assert_eq!(back.config_digest, 0xdead_beef_cafe_f00d);
        assert_eq!(back.patterns_done, verdicts());
        let (state, restored) = back.in_progress.unwrap();
        assert_eq!(state.verdict, partial());
        assert_eq!(state.queue, Vec::from(queue()));
        let want = content(&store());
        assert!(want.values().flatten().flatten().any(|&id| id >= 512));
        assert_eq!(content(&restored), want);
        // No stray temp file survives a successful write.
        assert!(!dir.join("snapshot.bin.tmp").exists());

        // A pattern-boundary snapshot holds no store.
        write_snapshot(&dir, 7, &verdicts(), None).unwrap();
        let back = read_snapshot(&dir, 1).unwrap();
        assert_eq!(back.patterns_done, verdicts());
        assert!(back.in_progress.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_is_detected() {
        let dir = tmp_dir("truncate");
        write_sample(&dir);
        let path = snapshot_path(&dir);
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 5, 8, 16, 24, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = read_snapshot(&dir, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut={cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_version_skew_are_detected() {
        let dir = tmp_dir("corrupt");
        write_sample(&dir);
        let path = snapshot_path(&dir);
        let good = fs::read(&path).unwrap();
        // A flipped bit anywhere in the body fails the checksum.
        for &pos in &[9, 40, good.len() / 2, good.len() - 9] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert_eq!(
                read_snapshot(&dir, 1).unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "pos={pos}"
            );
        }
        // Another version is refused even with a valid checksum, with a
        // typed error.
        for version in [2, 3, SNAPSHOT_VERSION + 1] {
            let mut skewed = good.clone();
            skewed[8..16].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, rechecksummed(skewed)).unwrap();
            let err = read_snapshot(&dir, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let skew = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
            assert_eq!(
                skew,
                Some(&UnsupportedVersion {
                    path: path.clone(),
                    found: version,
                    supported: SNAPSHOT_VERSION,
                }),
                "{err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_byte_under_a_valid_checksum_decodes_or_is_invalid_data() {
        // Past the checksum, the decoder must still refuse what it cannot
        // read — lengths, widths, ids, shard order — without panicking.
        let dir = tmp_dir("rechecksummed");
        write_sample(&dir);
        let path = snapshot_path(&dir);
        let good = fs::read(&path).unwrap();
        let cases = (in_range(8..good.len() - 8), in_range(0u16..256));
        Runner::new("snapshot_decoder_fails_closed_under_a_valid_checksum")
            .cases(1024)
            .run(cases, |(at, byte)| {
                let mut bytes = good.clone();
                bytes[at] = byte as u8;
                fs::write(&path, rechecksummed(bytes)).unwrap();
                match read_snapshot(&dir, 1) {
                    Ok(_) => Ok(()),
                    Err(e) => {
                        prop_assert!(e.kind() == io::ErrorKind::InvalidData, "{e:?}");
                        Ok(())
                    }
                }
            });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_reads_as_not_found() {
        let dir = tmp_dir("missing");
        assert_eq!(
            read_snapshot(&dir, 1).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
