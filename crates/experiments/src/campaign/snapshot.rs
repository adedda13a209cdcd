//! Atomic campaign checkpoints: the snapshot file format.
//!
//! A snapshot captures a campaign at a wave boundary — the only moment
//! the exploration state is both quiescent and a pure function of the
//! initial task queue (see [`crate::engine::parallel_drain_watched`]):
//! the verdicts of every finished crash pattern, the partial verdict and
//! outstanding task queue of the in-progress pattern, and the visited
//! store's `(generation, watermarks)` coordinates. Restoring all three
//! resumes the campaign bit-identically.
//!
//! The format is little-endian `u64` records behind a magic/version
//! header carrying the campaign's config digest, with a trailing FNV-1a
//! checksum over everything before it. Durability is write-temp-then-
//! rename: a crash mid-write leaves at worst a stale `.tmp` next to the
//! previous intact snapshot, never a half-written `snapshot.bin`; a torn
//! or bit-flipped file fails the checksum and reads as
//! [`std::io::ErrorKind::InvalidData`] instead of resuming from garbage.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use kset_sim::{Deviation, EventId};

use crate::checker::{Counterexample, PatternState, PatternVerdict, SleepEntry, WorkItem};

use super::store::{fnv1a, put_u64, take_u64};

/// First 8 bytes of every snapshot file.
const MAGIC: &[u8; 8] = b"KSETCKPT";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing. v2 added the Byzantine
/// slot list and per-fired-event deviations to serialized
/// counterexamples (the adversary-model work).
pub(crate) const SNAPSHOT_VERSION: u64 = 2;

/// File name of the current snapshot inside a campaign directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The resumable state of a campaign at one wave boundary.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// Digest of the exploration-relevant checker configuration
    /// ([`super::manifest::config_digest`]); a resume under a different
    /// configuration is refused.
    pub(crate) config_digest: u64,
    /// Log generation of the visited store this snapshot describes.
    pub(crate) generation: u64,
    /// Durable byte count of each shard's current-generation log. The
    /// vector length is the campaign's shard count.
    pub(crate) watermarks: Vec<u64>,
    /// Verdicts of the fault patterns finished so far, in
    /// [`crate::checker::CheckerConfig::fault_plans`] order.
    pub(crate) patterns_done: Vec<PatternVerdict>,
    /// The in-progress pattern's accumulated verdict and outstanding task
    /// queue; `None` at a pattern boundary (the next pattern re-seeds).
    pub(crate) in_progress: Option<PatternState>,
}

/// `path` of the snapshot inside campaign directory `dir`.
pub(crate) fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Serializes and durably writes `snapshot` as `dir/snapshot.bin`
/// (write-temp-then-rename, checksummed).
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> io::Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, snapshot.config_digest);
    put_u64(&mut out, snapshot.generation);
    put_u64(&mut out, snapshot.watermarks.len() as u64);
    for &w in &snapshot.watermarks {
        put_u64(&mut out, w);
    }
    put_u64(&mut out, snapshot.patterns_done.len() as u64);
    for verdict in &snapshot.patterns_done {
        encode_verdict(&mut out, verdict);
    }
    match &snapshot.in_progress {
        None => put_u64(&mut out, 0),
        Some(state) => {
            put_u64(&mut out, 1);
            encode_verdict(&mut out, &state.verdict);
            put_u64(&mut out, state.queue.len() as u64);
            for stack in &state.queue {
                put_u64(&mut out, stack.len() as u64);
                for item in stack {
                    encode_work_item(&mut out, item);
                }
            }
        }
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);

    let path = snapshot_path(dir);
    let tmp = dir.join("snapshot.bin.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&out)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, &path)
}

/// Reads and validates `dir/snapshot.bin`.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when no snapshot exists (nothing to
/// resume); [`io::ErrorKind::InvalidData`] on a bad magic, an unsupported
/// version, a checksum mismatch (truncation or corruption), or a decode
/// overrun.
pub(crate) fn read_snapshot(dir: &Path) -> io::Result<Snapshot> {
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
    if fnv1a(body) != stored {
        return Err(bad("checksum mismatch (truncated or corrupt)"));
    }
    let mut at = MAGIC.len();
    let next = |at: &mut usize| take_u64(body, at).ok_or_else(|| bad("decode ran past checksum"));
    let version = next(&mut at)?;
    if version != SNAPSHOT_VERSION {
        return Err(bad(&format!(
            "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let config_digest = next(&mut at)?;
    let generation = next(&mut at)?;
    let shard_count = next(&mut at)? as usize;
    let mut watermarks = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        watermarks.push(next(&mut at)?);
    }
    let done = next(&mut at)? as usize;
    let mut patterns_done = Vec::with_capacity(done);
    for _ in 0..done {
        patterns_done.push(decode_verdict(body, &mut at).ok_or_else(|| bad("bad verdict"))?);
    }
    let in_progress = match next(&mut at)? {
        0 => None,
        1 => {
            let verdict =
                decode_verdict(body, &mut at).ok_or_else(|| bad("bad partial verdict"))?;
            let stacks = next(&mut at)? as usize;
            let mut queue = Vec::with_capacity(stacks);
            for _ in 0..stacks {
                let len = next(&mut at)? as usize;
                let mut stack = Vec::with_capacity(len);
                for _ in 0..len {
                    stack.push(
                        decode_work_item(body, &mut at).ok_or_else(|| bad("bad work item"))?,
                    );
                }
                queue.push(stack);
            }
            Some(PatternState { verdict, queue })
        }
        other => return Err(bad(&format!("bad in-progress flag {other}"))),
    };
    if at != body.len() {
        return Err(bad("trailing bytes after the decoded snapshot"));
    }
    Ok(Snapshot {
        config_digest,
        generation,
        watermarks,
        patterns_done,
        in_progress,
    })
}

fn put_usize_list(out: &mut Vec<u8>, list: &[usize]) {
    put_u64(out, list.len() as u64);
    for &v in list {
        put_u64(out, v as u64);
    }
}

fn take_usize_list(bytes: &[u8], at: &mut usize) -> Option<Vec<usize>> {
    let len = take_u64(bytes, at)? as usize;
    let mut list = Vec::with_capacity(len);
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
            let mut fired = Vec::with_capacity(fired_len);
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
            *at = end;
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
    put_u64(out, item.preemptions as u64);
}

fn decode_work_item(bytes: &[u8], at: &mut usize) -> Option<WorkItem> {
    let prefix = take_usize_list(bytes, at)?;
    let sleep_len = take_u64(bytes, at)? as usize;
    let mut sleep = Vec::with_capacity(sleep_len);
    for _ in 0..sleep_len {
        let id = take_u64(bytes, at)?;
        let target = take_u64(bytes, at)? as usize;
        sleep.push(SleepEntry {
            id: EventId::from_u64(id),
            target,
        });
    }
    let preemptions = take_u64(bytes, at)? as usize;
    Some(WorkItem {
        prefix,
        sleep,
        preemptions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
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
        let partial = PatternVerdict {
            crashed: vec![1],
            runs: 64,
            states: 12,
            sleep_skips: 0,
            dedup_hits: 1,
            complete: true,
            worst_agreement: 1,
            tasks: 3,
            violation: None,
        };
        Snapshot {
            config_digest: 0xdead_beef_cafe_f00d,
            generation: 3,
            watermarks: vec![128, 0, 4096, 24],
            patterns_done: vec![clean, violated],
            in_progress: Some(PatternState {
                verdict: partial,
                queue: vec![
                    vec![WorkItem {
                        prefix: vec![0, 2, 1],
                        sleep: vec![SleepEntry {
                            id: EventId::from_u64(7),
                            target: 2,
                        }],
                        preemptions: 1,
                    }],
                    vec![
                        WorkItem {
                            prefix: vec![4],
                            sleep: vec![],
                            preemptions: 0,
                        },
                        WorkItem {
                            prefix: vec![],
                            sleep: vec![
                                SleepEntry {
                                    id: EventId::from_u64(1),
                                    target: 0,
                                },
                                SleepEntry {
                                    id: EventId::from_u64(2),
                                    target: 1,
                                },
                            ],
                            preemptions: 2,
                        },
                    ],
                ],
            }),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kset_snapshot_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("roundtrip");
        let snapshot = sample();
        write_snapshot(&dir, &snapshot).unwrap();
        let back = read_snapshot(&dir).unwrap();
        assert_eq!(back.config_digest, snapshot.config_digest);
        assert_eq!(back.generation, snapshot.generation);
        assert_eq!(back.watermarks, snapshot.watermarks);
        assert_eq!(back.patterns_done, snapshot.patterns_done);
        let got = back.in_progress.unwrap();
        let want = snapshot.in_progress.unwrap();
        assert_eq!(got.verdict, want.verdict);
        assert_eq!(got.queue, want.queue);
        // No stray temp file survives a successful write.
        assert!(!dir.join("snapshot.bin.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_is_detected() {
        let dir = tmp_dir("truncate");
        write_snapshot(&dir, &sample()).unwrap();
        let path = snapshot_path(&dir);
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 5, 8, 16, 24, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = read_snapshot(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut={cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_version_skew_are_detected() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample()).unwrap();
        let path = snapshot_path(&dir);
        let good = fs::read(&path).unwrap();
        // A flipped bit anywhere in the body fails the checksum.
        for &pos in &[9, 40, good.len() - 9] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert_eq!(
                read_snapshot(&dir).unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "pos={pos}"
            );
        }
        // A future version is refused even with a valid checksum.
        let mut future = good.clone();
        let mut body = future[..future.len() - 8].to_vec();
        body[8..16].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        future = body;
        fs::write(&path, &future).unwrap();
        let err = read_snapshot(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_reads_as_not_found() {
        let dir = tmp_dir("missing");
        assert_eq!(
            read_snapshot(&dir).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
