//! The checker's visited table: for every state fingerprint, the minimal
//! antichain of sleep sets the state was expanded under, stored as
//! event-id bitmaps inside the fingerprint's index slot while they are
//! few and small, and in one flat arena otherwise.
//!
//! The subset rule needs *every* incomparable sleep set a fingerprint was
//! expanded with, but never a superset of another entry: if `small ⊆ big`
//! are both stored, any query pruned by `big` (`big ⊆ q`) is already
//! pruned by `small`. [`Visited::insert`] therefore drops stored
//! supersets of each new entry, keeping every bucket a minimal antichain
//! (which also keeps the per-probe subset scan short on states revisited
//! under many incomparable sleep sets).
//!
//! # Layout
//!
//! * **Index.** An open-addressing table of 32-byte slots, two to an
//!   aligned cache line, probed linearly from the fingerprint's home slot
//!   (its low 32 bits modulo the slot count), wrapping from the last slot
//!   to slot 0. Fingerprints are [`kset_sim::Mix64`]-avalanched digests,
//!   already uniform over `u64`, so they index the table directly;
//!   re-hashing them costs time and adds no dispersion
//!   (`PERFORMANCE.md`). The index doubles up to 4,096 slots and
//!   grows by 5/4 from there, so a large table stays between 60 % and
//!   75 % load instead of 37.5–75 %: the `n = 4` certification's largest
//!   store spreads 489,910 fingerprints over 787,500 slots, not 1,048,576
//!   (`PERFORMANCE.md`, "Right-sized visited index"). A table that never
//!   passes the threshold keeps a power-of-two slot count and exactly the
//!   slot order a doubling-only index gives it.
//! * **Inline buckets.** A slot holds its fingerprint and 24 bytes: eight
//!   3-byte fields. A bucket of at most eight sets whose ids are all
//!   below 23 lives there, each set one field, a 23-bit bitmap tagged
//!   with a present bit. A probe that finds such a fingerprint reads one
//!   cache line, and an insertion edits the fields in place. The
//!   `n = 4` certification's largest event id is 18, and 96 % of its
//!   wave-store probes that find their fingerprint find an inline
//!   bucket. Six 32-bit fields would admit ids up to 30, but the buckets
//!   of seven or eight sets they push out to the arena cost more memory
//!   than the wider slots already do (`PERFORMANCE.md`).
//! * **Arena buckets.** A bucket outgrows its slot for good when a ninth
//!   set or a set with an id of 23 or more arrives; the slot then keeps
//!   the bucket's arena range.
//! * **Arena.** One `Vec<u64>` holding every arena bucket contiguously:
//!   `[width][set 0][set 1]…`, each set a bitmap of `width` words with
//!   bit `id` set for every sleeping event id. Event ids are per-run
//!   creation numbers, so a bitmap is one word while ids stay below 64
//!   (the `n = 4` certification's largest is 18) and widens as needed
//!   beyond that; a bucket's width is the widest set it ever held.
//!   `a ⊆ b` is then a word-wise `a & !b == 0` — one AND per stored set
//!   at one word — and a query is encoded once per probe, not once per
//!   stored set. No code reads a stored set's target process, so the
//!   table keeps ids only. An inline bucket reads as a one-word bucket:
//!   `Visited::buckets` and [`Visited::partition`] yield every bucket in
//!   this format, so their output does not depend on where it lives.
//! * **Id lists.** A set with an id of `64 * BITMAP_WORDS` or more would
//!   make every set of its bucket that wide, and every subset test that
//!   slow, however few ids it holds. Its bucket switches for good to
//!   `[0][count][ids…]…`: each set its ascending ids, so cost follows the
//!   number of ids rather than their size. The checker's runs stay far
//!   below that; the format keeps the table linear for any id a run
//!   creates.
//! * **Rewrites.** An insertion into the arena bucket at the arena end
//!   edits it in place. Any other changed arena bucket is rewritten over
//!   its old words when it still fits (a subset replaced stored
//!   supersets), its freed tail words becoming dead, and at the arena end
//!   otherwise, all its old words dead. Once dead words pass a quarter of
//!   the arena, [`Visited`] compacts it *in place*, sliding live buckets
//!   down in start order — compacting into a second buffer would double
//!   the table's peak footprint at exactly its largest moment.
//!
//! # Shards
//!
//! The store every task of a wave prunes against is a [`Sharded`] store:
//! [`SHARDS`] tables, a fingerprint living in shard [`shard_of`]. Each
//! task groups its own table's entries by shard before it returns
//! ([`Visited::partition`]), in parallel with the other tasks of its
//! wave; at the wave barrier [`Sharded::fold`] folds every shard on one
//! worker, the wave's tables in claim order and each table's entries in
//! index order. That is the order a single table would have absorbed the
//! shard's entries in, so a shard's content is independent of the worker
//! count. The checker's one pattern loop drains every pattern against a
//! fresh store, in memory and in a campaign alike; a campaign checkpoint
//! writes the store's records (`Sharded::write_records`) into its
//! snapshot, and a resume folds them back (`Partitioned::from_records`).

use crate::checker::SleepEntry;
use crate::engine::parallel_map;

/// Shards of the checker's in-memory visited store: a constant of the
/// algorithm, like [`crate::engine::CHUNK`], never the worker count, so
/// every shard's content is the same for every `threads` value. 64 gives
/// two workers (or a few more) even shares of the barrier fold.
pub const SHARDS: usize = 64;

/// The shard `fingerprint` lives in among `shards`. Uses the high bits,
/// so the partition is independent of the low bits a table's index probe
/// consumes; fingerprints are avalanched, so any disjoint bit range is
/// uniform.
pub fn shard_of(fingerprint: u64, shards: usize) -> usize {
    ((fingerprint >> 32) % shards as u64) as usize
}

/// Widest set bitmap a bucket stores (event ids below 512), and the
/// widest query bitmap encoded on the stack.
const BITMAP_WORDS: usize = 8;

/// Width word of an id-list bucket.
const ID_LISTS: u64 = 0;

/// Index capacity of a table's first allocation.
const MIN_SLOTS: usize = 16;

/// Slot count from which the index grows by 5/4 instead of doubling,
/// holding a large table between 60 % and 75 % load. Smaller tables are
/// cache-resident and rehash cheaply; the memory is in the large ones.
const STEP_FROM: usize = 4096;

/// Arenas shorter than this (in words) are never compacted: dead words
/// there cost less than the compaction's bookkeeping.
const COMPACT_MIN_WORDS: usize = 256;

/// Bytes of one index slot: half a cache line.
const SLOT: usize = 32;

/// Sets an index slot holds itself: as many [`FIELD`]-byte fields as fit
/// beside the fingerprint.
const INLINE: usize = 8;

/// Bytes of one inline set field.
const FIELD: usize = 3;

/// Marks an inline field as present; the field's other 23 bits are the
/// set's bitmap, so an inline set's ids stay below 23.
const PRESENT: u32 = 1 << 23;

/// Field 0 of a slot whose bucket lives in the arena; bytes `12..16` and
/// `16..20` then hold the bucket's arena start and length.
const ARENA: u32 = 1;

/// One index slot: the fingerprint in bytes `0..8` (little-endian), then
/// [`INLINE`] fields holding its bucket, one of
/// * empty slot: every byte `0`;
/// * inline: fields `0..count` are the sets, each `PRESENT | bitmap`, the
///   rest `0`;
/// * arena: field 0 is [`ARENA`], and the bucket is
///   `arena[start..start + len]`, its width word included.
#[derive(Clone, Copy, Debug)]
struct Slot([u8; SLOT]);

const _: () = assert!(8 + INLINE * FIELD == SLOT);

impl Slot {
    const EMPTY: Slot = Slot([0; SLOT]);

    fn new(fingerprint: u64, first: u32) -> Slot {
        let mut slot = Slot::EMPTY;
        slot.0[..8].copy_from_slice(&fingerprint.to_le_bytes());
        slot.set_field(0, first);
        slot
    }

    fn arena(fingerprint: u64, start: usize, len: usize) -> Slot {
        let mut slot = Slot::new(fingerprint, ARENA);
        slot.0[12..16].copy_from_slice(&word_offset(start).to_le_bytes());
        slot.0[16..20].copy_from_slice(&word_offset(len).to_le_bytes());
        slot
    }

    fn fingerprint(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().unwrap())
    }

    /// The bytes of fields `from..`.
    fn fields(&self, from: usize) -> &[u8] {
        &self.0[8 + from * FIELD..]
    }

    fn field(&self, at: usize) -> u32 {
        field_value(self.fields(at))
    }

    fn set_field(&mut self, at: usize, value: u32) {
        self.0[8 + at * FIELD..][..FIELD].copy_from_slice(&value.to_le_bytes()[..FIELD]);
    }

    fn is_empty(&self) -> bool {
        self.field(0) == 0
    }

    fn is_arena(&self) -> bool {
        self.field(0) == ARENA
    }

    /// The number of inline sets, or `None` for an arena (or empty) slot.
    fn inline_count(&self) -> Option<usize> {
        (self.field(0) & PRESENT != 0).then(|| {
            (0..INLINE)
                .take_while(|&at| self.field(at) & PRESENT != 0)
                .count()
        })
    }

    /// The arena range `(start, len)` of an arena slot's bucket.
    fn range(&self) -> (usize, usize) {
        let word = |at: usize| u32::from_le_bytes(self.0[at..at + 4].try_into().unwrap());
        (word(12) as usize, word(16) as usize)
    }
}

/// The open-addressing index: any number of [`Slot`]s (or none) in one
/// byte buffer, the first at a [`SLOT`]-byte boundary, so that no slot
/// straddles two cache lines. (A `#[repr(align(32))]` slot type would do
/// the same through the allocator's aligned path, which on glibc costs
/// more resident memory than the padding here.)
#[derive(Default, Debug)]
struct Index {
    bytes: Vec<u8>,
    /// Offset of slot 0 in `bytes`.
    first: usize,
    slots: usize,
    /// `⌊(2^64 − 1) / slots⌋ + 1`, the reciprocal [`Index::home`]
    /// multiplies by.
    reciprocal: u64,
}

impl Index {
    fn new(slots: usize) -> Index {
        // `home` is exact for slot counts up to 2^32.
        assert!(
            slots > 0 && slots as u64 <= 1 << 32,
            "visited index of {slots} slots"
        );
        let bytes = vec![0; slots * SLOT + SLOT - 1];
        let first = bytes.as_ptr().align_offset(SLOT);
        Index {
            bytes,
            first,
            slots,
            reciprocal: (u64::MAX / slots as u64).wrapping_add(1),
        }
    }

    /// The home slot of `fingerprint`: its low 32 bits modulo the slot
    /// count, by Lemire's multiply-only "fastmod" (exact for 32-bit
    /// operands). At a power of two this is `fingerprint & (slots - 1)`.
    fn home(&self, fingerprint: u64) -> usize {
        let fraction = self.reciprocal.wrapping_mul(u64::from(fingerprint as u32));
        ((u128::from(fraction) * self.slots as u128) >> 64) as usize
    }

    /// The slot after `at`, wrapping from the last slot to slot 0.
    fn next(&self, at: usize) -> usize {
        if at + 1 == self.slots {
            0
        } else {
            at + 1
        }
    }

    fn at(&self, at: usize) -> &[u8; SLOT] {
        self.bytes[self.first + at * SLOT..][..SLOT]
            .try_into()
            .unwrap()
    }

    fn get(&self, at: usize) -> Slot {
        Slot(*self.at(at))
    }

    fn set(&mut self, at: usize, slot: Slot) {
        self.bytes[self.first + at * SLOT..][..SLOT].copy_from_slice(&slot.0);
    }
}

/// The value of one inline field.
fn field_value(field: &[u8]) -> u32 {
    u32::from(field[0]) | u32::from(field[1]) << 8 | u32::from(field[2]) << 16
}

/// The inline field of a set bitmap (trailing zero words trimmed), if its
/// ids all stay below 23.
fn inline_field(bits: &[u64]) -> Option<u32> {
    match bits {
        [word] if *word < u64::from(PRESENT) => Some(*word as u32 | PRESENT),
        _ => None,
    }
}

/// A visited table: node fingerprints already expanded, each with the
/// minimal antichain of sleep sets it was expanded under (see the
/// [module docs](self) for the semantics and the memory layout).
#[derive(Default, Debug)]
pub struct Visited {
    /// Open-addressing index.
    index: Index,
    /// Occupied index slots.
    fingerprints: usize,
    /// Every arena bucket's words, live and dead.
    arena: Vec<u64>,
    /// Arena words of abandoned bucket copies.
    dead: usize,
    /// Sets currently stored across all buckets.
    live: u64,
    /// Cumulative insertions (the memoization budget `max_states` caps).
    inserted: usize,
    /// Where a bucket changing place or format is rebuilt.
    scratch: Vec<u64>,
}

impl Visited {
    /// The subset-rule check: was `fingerprint` expanded under a sleep set
    /// contained in `sleep`? (If so, that visit explored a superset of
    /// this node's successors and the node can be pruned.)
    pub fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        self.probe(fingerprint)
            .is_ok_and(|at| with_bitmap(ids_of(sleep), |query| self.bucket(at).covers(query)))
    }

    /// Records that `fingerprint` is being expanded under `sleep`,
    /// dropping stored supersets of `sleep` so the bucket stays a minimal
    /// antichain.
    pub fn insert(&mut self, fingerprint: u64, sleep: &[SleepEntry]) {
        with_bitmap(ids_of(sleep), |set| {
            self.insert_probed(self.probe(fingerprint), fingerprint, set)
        });
    }

    /// [`Visited::covers`] then, on a miss, [`Visited::insert`], with one
    /// index probe and one bitmap encoding; returns whether `sleep` was
    /// inserted (`false`: the table already covers it).
    pub fn insert_unless_covered(&mut self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        with_bitmap(ids_of(sleep), |set| self.absorb_bits(fingerprint, set))
    }

    /// Folds another table into this one: each of its sets, in storage
    /// order, is skipped if already covered here and inserted otherwise.
    /// The merged minimal sets — and with them every future
    /// [`Visited::covers`] answer — are independent of merge order; only
    /// the unobservable arena layout varies.
    pub fn merge(&mut self, other: &Visited) {
        for (fingerprint, bucket) in other.buckets() {
            for set in bucket.sets() {
                set.with_bits(|bits| self.absorb_bits(fingerprint, bits));
            }
        }
    }

    /// Cumulative [`Visited::insert`] calls (the quantity `max_states`
    /// budgets), including entries later superseded by a subset.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Minimal entries currently stored, across all fingerprints.
    pub fn live_entries(&self) -> u64 {
        self.live
    }

    /// Fingerprints stored: the index's occupied slots.
    pub fn fingerprints(&self) -> u64 {
        self.fingerprints as u64
    }

    /// Index slots, occupied or not.
    pub fn slots(&self) -> u64 {
        self.index.slots as u64
    }

    /// Bytes the table keeps resident: the index plus the used part of
    /// the arena (dead words included until the next compaction).
    pub fn resident_bytes(&self) -> u64 {
        (self.index.bytes.len() + self.arena.len() * 8) as u64
    }

    /// Inserts an already-encoded set bitmap unless the table already
    /// covers it, with one index probe; returns whether it was inserted.
    pub(crate) fn absorb_bits(&mut self, fingerprint: u64, set: &[u64]) -> bool {
        let probe = self.probe(fingerprint);
        if let Ok(at) = probe {
            if self.bucket(at).covers(set) {
                return false;
            }
        }
        self.insert_probed(probe, fingerprint, set);
        true
    }

    /// Inserts `set` (trailing zero words ignored) given `probe`, the
    /// result of [`Visited::probe`] for `fingerprint`.
    fn insert_probed(&mut self, probe: Result<usize, usize>, fingerprint: u64, set: &[u64]) {
        let bits = trimmed(set);
        self.inserted += 1;
        self.live += 1;
        let inline = inline_field(bits);
        let at = match probe {
            Ok(at) => at,
            Err(mut at) => {
                if (self.fingerprints + 1) * 4 > self.index.slots * 3 {
                    self.grow();
                    at = self.probe(fingerprint).unwrap_err();
                }
                self.fingerprints += 1;
                if let Some(field) = inline {
                    self.index.set(at, Slot::new(fingerprint, field));
                    return;
                }
                // Open an empty bucket at the arena's tail.
                self.index
                    .set(at, Slot::arena(fingerprint, self.arena.len(), 1));
                self.arena.push(if bits.len() > BITMAP_WORDS {
                    ID_LISTS
                } else {
                    bits.len() as u64
                });
                at
            }
        };
        let mut slot = self.index.get(at);
        if let Some(count) = slot.inline_count() {
            if let Some(field) = inline {
                // Slide the kept sets down over the dropped supersets.
                let mut kept = 0;
                for read in 0..count {
                    let stored = slot.field(read);
                    if field & !stored == 0 {
                        self.live -= 1;
                    } else {
                        slot.set_field(kept, stored);
                        kept += 1;
                    }
                }
                if kept < INLINE {
                    slot.set_field(kept, field);
                    for vacated in kept + 1..count {
                        slot.set_field(vacated, 0);
                    }
                    self.index.set(at, slot);
                    return;
                }
            }
            // One set more than the slot holds, or one it cannot hold:
            // the bucket moves to the arena's tail, where the arena path
            // below edits it in place.
            let start = self.arena.len();
            self.arena.push(1);
            let sets = slot.fields(0)[..count * FIELD].chunks_exact(FIELD);
            self.arena
                .extend(sets.map(|field| u64::from(field_value(field) & !PRESENT)));
            self.index
                .set(at, Slot::arena(fingerprint, start, 1 + count));
        }
        self.insert_arena(at, bits);
    }

    /// Inserts `bits` into the arena bucket of slot `at`.
    fn insert_arena(&mut self, at: usize, bits: &[u64]) {
        let (start, len) = self.index.get(at).range();
        let width = self.arena[start];
        let lists = width == ID_LISTS || bits.len() > BITMAP_WORDS;
        let target = if lists {
            ID_LISTS
        } else {
            width.max(bits.len() as u64)
        };
        let new = NewSet::of(bits, lists);
        // The rebuilt bucket is `arena[start..kept]` followed by `fresh`.
        let mut fresh = std::mem::take(&mut self.scratch);
        fresh.clear();
        let kept = if target == width {
            // Same format: slide the kept sets down over the dropped
            // supersets.
            let (mut read, mut write) = (start + 1, start + 1);
            while read < start + len {
                let span = if width == ID_LISTS {
                    1 + self.arena[read] as usize
                } else {
                    width as usize
                };
                if new.within(set_at(&self.arena[read..read + span], width)) {
                    self.live -= 1;
                } else {
                    if write != read {
                        self.arena.copy_within(read..read + span, write);
                    }
                    write += span;
                }
                read += span;
            }
            write
        } else {
            // New format: rebuild the kept sets in `fresh`.
            fresh.push(target);
            let mut dropped = 0;
            for stored in self.bucket(at).sets() {
                if new.within(stored) {
                    dropped += 1;
                } else {
                    stored.push(&mut fresh, target);
                }
            }
            self.live -= dropped;
            start
        };
        new.push(&mut fresh, target);
        let size = kept - start + fresh.len();
        let start = if start + len == self.arena.len() {
            // The arena's tail: edit it in place.
            self.arena.truncate(kept);
            self.arena.extend_from_slice(&fresh);
            start
        } else if size <= len {
            // A subset replaced supersets: the bucket still fits.
            self.arena[kept..kept + fresh.len()].copy_from_slice(&fresh);
            self.dead += len - size;
            start
        } else {
            self.dead += len;
            let tail = self.arena.len();
            self.arena.extend_from_within(start..kept);
            self.arena.extend_from_slice(&fresh);
            tail
        };
        let fingerprint = self.index.get(at).fingerprint();
        self.index.set(at, Slot::arena(fingerprint, start, size));
        self.scratch = fresh;
        if self.arena.len() >= COMPACT_MIN_WORDS && self.dead * 4 > self.arena.len() {
            self.compact();
        }
    }

    /// The stored `(fingerprint, bucket)` pairs, in index order
    /// (deterministic for a given insertion history).
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u64, Bucket<'_>)> {
        (0..self.index.slots)
            .filter(|&at| !self.index.get(at).is_empty())
            .map(|at| (self.index.get(at).fingerprint(), self.bucket(at)))
    }

    /// The bucket of occupied slot `at`.
    fn bucket(&self, at: usize) -> Bucket<'_> {
        let slot = self.index.get(at);
        if let Some(count) = slot.inline_count() {
            return Bucket::Inline(&self.index.at(at)[8..8 + count * FIELD]);
        }
        let (start, len) = slot.range();
        Bucket::Arena {
            width: self.arena[start],
            body: &self.arena[start + 1..start + len],
        }
    }

    /// `Ok(slot)` holding `fingerprint`, or `Err(slot)`: the empty slot
    /// its probe sequence ends at (`0` in an unallocated index).
    fn probe(&self, fingerprint: u64) -> Result<usize, usize> {
        if self.index.slots == 0 {
            return Err(0);
        }
        let mut at = self.index.home(fingerprint);
        loop {
            let slot = self.index.get(at);
            if slot.is_empty() {
                return Err(at);
            }
            if slot.fingerprint() == fingerprint {
                return Ok(at);
            }
            at = self.index.next(at);
        }
    }

    /// Grows the index (or allocates the first one) and re-places every
    /// occupied slot: doubling below [`STEP_FROM`] slots, by 5/4 from
    /// there on.
    fn grow(&mut self) {
        let capacity = match self.index.slots {
            0 => MIN_SLOTS,
            small if small < STEP_FROM => small * 2,
            large => large + large / 4,
        };
        let old = std::mem::replace(&mut self.index, Index::new(capacity));
        for slot in (0..old.slots).map(|at| old.get(at)) {
            if slot.is_empty() {
                continue;
            }
            let mut at = self.index.home(slot.fingerprint());
            while !self.index.get(at).is_empty() {
                at = self.index.next(at);
            }
            self.index.set(at, slot);
        }
    }

    /// Drops the dead words by sliding every arena bucket down over them,
    /// in start order, inside the arena itself.
    fn compact(&mut self) {
        let mut order: Vec<u32> = (0..self.index.slots)
            .filter(|&at| self.index.get(at).is_arena())
            .map(|at| at as u32)
            .collect();
        order.sort_unstable_by_key(|&at| self.index.get(at as usize).range().0);
        let mut write = 0;
        for at in order.into_iter().map(|at| at as usize) {
            let slot = self.index.get(at);
            let (start, len) = slot.range();
            self.arena.copy_within(start..start + len, write);
            self.index
                .set(at, Slot::arena(slot.fingerprint(), write, len));
            write += len;
        }
        self.arena.truncate(write);
        self.dead = 0;
    }
}

/// A task's visited table regrouped by shard ([`Visited::partition`]),
/// ready for a [`Sharded::fold`]: each shard's buckets copied into one
/// contiguous run, so the fold reads them in order.
#[derive(Debug)]
pub struct Partitioned {
    /// Records `[fingerprint][bucket length][bucket words…]`, grouped by
    /// shard and in the table's index order within a shard.
    words: Vec<u64>,
    /// Shard `s` owns `words[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
}

impl Visited {
    /// Regroups the table's entries by [`shard_of`] among `shards`,
    /// keeping index order within each shard, and frees the table.
    pub fn partition(self, shards: usize) -> Partitioned {
        let mut bounds = vec![0; shards + 1];
        for (fingerprint, bucket) in self.buckets() {
            bounds[shard_of(fingerprint, shards) + 1] += 2 + bucket.len();
        }
        for shard in 0..shards {
            bounds[shard + 1] += bounds[shard];
        }
        let mut next = bounds.clone();
        let mut words = vec![0; bounds[shards]];
        for (fingerprint, bucket) in self.buckets() {
            let at = &mut next[shard_of(fingerprint, shards)];
            let end = *at + 2 + bucket.len();
            write_record(fingerprint, bucket, &mut words[*at..end]);
            *at = end;
        }
        Partitioned { words, bounds }
    }
}

/// Writes the record of `fingerprint`'s `bucket`,
/// `[fingerprint][bucket length][bucket words…]`, to `out` (of
/// `2 +` [`Bucket::len`] words).
fn write_record(fingerprint: u64, bucket: Bucket<'_>, out: &mut [u64]) {
    out[0] = fingerprint;
    out[1] = (out.len() - 2) as u64;
    bucket.write(&mut out[2..]);
}

/// Largest event id a loaded record may hold. A loaded id-list set is
/// folded in as a bitmap of `id / 64 + 1` words, so the cap bounds that
/// bitmap (256 KiB); the kernel stops a run after 2,000,000 events, so no
/// checker run creates a larger id.
const MAX_LOADED_ID: u64 = 1 << 21;

impl Partitioned {
    /// Reads records as [`Sharded::write_records`] writes them for a store
    /// of `shards` shards: each record well-formed, its sets of a legal
    /// width or ascending ids up to [`MAX_LOADED_ID`], and its shard no
    /// lower than the record's before.
    ///
    /// # Errors
    ///
    /// Says what is wrong with the first record that is not so.
    pub(crate) fn from_records(words: Vec<u64>, shards: usize) -> Result<Self, String> {
        let mut bounds = vec![0; shards + 1];
        let mut shard = 0;
        let mut at = 0;
        while at < words.len() {
            let bad = |what: &str| format!("record at word {at}: {what}");
            let [fingerprint, len, ..] = words[at..] else {
                return Err(bad("no bucket length"));
            };
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| (at + 2).checked_add(len))
                .filter(|&end| end <= words.len())
                .ok_or_else(|| bad("bucket runs past the end"))?;
            let Some((&width, body)) = words[at + 2..end].split_first() else {
                return Err(bad("empty bucket"));
            };
            let legal = match width {
                ID_LISTS => id_lists_are_legal(body),
                width => width <= BITMAP_WORDS as u64 && body.len() % width as usize == 0,
            };
            if !legal {
                return Err(bad("malformed bucket"));
            }
            let home = shard_of(fingerprint, shards);
            if home < shard {
                return Err(bad("out of shard order"));
            }
            for done in shard..home {
                bounds[done + 1] = at;
            }
            shard = home;
            at = end;
        }
        for done in shard..shards {
            bounds[done + 1] = at;
        }
        Ok(Partitioned { words, bounds })
    }

    /// The shard count the table was partitioned for.
    fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Folds the table's entries of `shard` into `into`, in index order,
    /// each bucket's sets in storage order.
    fn fold_into(&self, shard: usize, into: &mut Visited) {
        let mut rest = &self.words[self.bounds[shard]..self.bounds[shard + 1]];
        while let [fingerprint, len, tail @ ..] = rest {
            let (bucket, next) = tail.split_at(*len as usize);
            let bucket = Bucket::Arena {
                width: bucket[0],
                body: &bucket[1..],
            };
            for set in bucket.sets() {
                set.with_bits(|bits| into.absorb_bits(*fingerprint, bits));
            }
            rest = next;
        }
    }
}

/// Whether `body` is a sequence of id lists `[count][ids…]`, each list's
/// ids ascending and at most [`MAX_LOADED_ID`].
fn id_lists_are_legal(mut body: &[u64]) -> bool {
    while let [count, rest @ ..] = body {
        let Some(ids) = usize::try_from(*count)
            .ok()
            .and_then(|count| rest.get(..count))
        else {
            return false;
        };
        let ascending = ids.windows(2).all(|pair| pair[0] < pair[1]);
        if !ascending || ids.last().is_some_and(|&id| id > MAX_LOADED_ID) {
            return false;
        }
        body = &rest[ids.len()..];
    }
    true
}

/// A visited store partitioned into shards by [`shard_of`] (see the
/// [module docs](self#shards)).
#[derive(Debug)]
pub struct Sharded {
    tables: Vec<Visited>,
}

impl Sharded {
    /// A store of `shards` empty tables.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        Sharded {
            tables: (0..shards).map(|_| Visited::default()).collect(),
        }
    }

    /// The subset-rule query, asked of `fingerprint`'s shard.
    pub fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        self.tables[shard_of(fingerprint, self.tables.len())].covers(fingerprint, sleep)
    }

    /// Folds one wave's tables in, each shard on one of `threads`
    /// workers: the tables in claim order (their order in `wave`), each
    /// table's entries in index order. Entries already covered are
    /// skipped; new ones drop their stored supersets.
    ///
    /// # Panics
    ///
    /// Panics if a table was partitioned for another shard count.
    pub fn fold(&mut self, wave: &[Partitioned], threads: usize) {
        let shards = self.tables.len();
        assert!(
            wave.iter().all(|table| table.shards() == shards),
            "tables partitioned for another shard count"
        );
        parallel_map(threads, self.tables.iter_mut().collect(), |shard, into| {
            for table in wave {
                table.fold_into(shard, into);
            }
        });
    }

    /// Hands every stored bucket to `emit` as its record,
    /// `[fingerprint][bucket length][bucket words…]` — the words
    /// [`Visited::partition`] writes — shard by shard and in index order
    /// within a shard, without copying the store.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error `emit` returns.
    pub(crate) fn write_records<E>(
        &self,
        mut emit: impl FnMut(&[u64]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut record = Vec::new();
        for (fingerprint, bucket) in self.tables.iter().flat_map(Visited::buckets) {
            record.resize(2 + bucket.len(), 0);
            write_record(fingerprint, bucket, &mut record);
            emit(&record)?;
        }
        Ok(())
    }

    /// Minimal entries stored across all shards.
    pub fn live_entries(&self) -> u64 {
        self.tables.iter().map(Visited::live_entries).sum()
    }

    /// The number of shards, the count tables must be
    /// [partitioned](Visited::partition) for before a [`Sharded::fold`].
    pub fn shard_count(&self) -> usize {
        self.tables.len()
    }

    /// The shard tables, in shard order.
    pub fn tables(&self) -> &[Visited] {
        &self.tables
    }
}

/// One fingerprint's stored sets: the inline fields of its index slot,
/// or an arena bucket of `width`-word bitmaps (id lists when `width` is
/// [`ID_LISTS`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Bucket<'a> {
    /// `PRESENT`-tagged one-word bitmaps, [`FIELD`] bytes each.
    Inline(&'a [u8]),
    /// A bucket in the arena format, its width word split off.
    Arena { width: u64, body: &'a [u64] },
}

impl<'a> Bucket<'a> {
    /// The stored sets, in storage order.
    pub(crate) fn sets(&self) -> Sets<'a> {
        match *self {
            Bucket::Inline(fields) => Sets::Inline(fields.chunks_exact(FIELD)),
            Bucket::Arena { width, body } => Sets::Arena { width, rest: body },
        }
    }

    /// Whether some stored set is a subset of `query`.
    fn covers(&self, query: &[u64]) -> bool {
        match *self {
            Bucket::Inline(fields) => {
                let allowed = query[0] as u32 | PRESENT;
                fields
                    .chunks_exact(FIELD)
                    .any(|field| field_value(field) & !allowed == 0)
            }
            Bucket::Arena { width: 1, body } => {
                let allowed = query[0];
                body.iter().any(|&set| set & !allowed == 0)
            }
            Bucket::Arena { .. } => self.sets().any(|set| set.within(query)),
        }
    }

    /// Length of the bucket in the arena format, width word included.
    fn len(&self) -> usize {
        match *self {
            Bucket::Inline(fields) => 1 + fields.len() / FIELD,
            Bucket::Arena { body, .. } => 1 + body.len(),
        }
    }

    /// Writes the bucket in the arena format to `out` (of [`Bucket::len`]
    /// words): an inline bucket is a one-word bitmap bucket.
    fn write(&self, out: &mut [u64]) {
        match *self {
            Bucket::Inline(fields) => {
                out[0] = 1;
                for (out, field) in out[1..].iter_mut().zip(fields.chunks_exact(FIELD)) {
                    *out = u64::from(field_value(field) & !PRESENT);
                }
            }
            Bucket::Arena { width, body } => {
                out[0] = width;
                out[1..].copy_from_slice(body);
            }
        }
    }
}

/// Iterator over a [`Bucket`]'s sets.
#[derive(Clone, Debug)]
pub(crate) enum Sets<'a> {
    Inline(std::slice::ChunksExact<'a, u8>),
    Arena { width: u64, rest: &'a [u64] },
}

impl<'a> Iterator for Sets<'a> {
    type Item = Set<'a>;

    fn next(&mut self) -> Option<Set<'a>> {
        match self {
            Sets::Inline(fields) => fields
                .next()
                .map(|field| Set::Word(u64::from(field_value(field) & !PRESENT))),
            Sets::Arena { width, rest } => {
                if rest.is_empty() {
                    return None;
                }
                let span = if *width == ID_LISTS {
                    1 + rest[0] as usize
                } else {
                    *width as usize
                };
                let (set, tail) = rest.split_at(span);
                *rest = tail;
                Some(set_at(set, *width))
            }
        }
    }
}

/// One stored sleep set.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Set<'a> {
    /// A one-word bitmap of event ids (an inline set).
    Word(u64),
    /// A bitmap of event ids.
    Bits(&'a [u64]),
    /// Ascending event ids.
    Ids(&'a [u64]),
}

impl<'a> Set<'a> {
    /// Runs `f` on the set as a bitmap.
    pub(crate) fn with_bits<R>(self, f: impl FnOnce(&[u64]) -> R) -> R {
        match self {
            Set::Word(word) => f(&[word]),
            Set::Bits(bits) => f(bits),
            Set::Ids(ids) => with_bitmap(ids.iter().copied(), f),
        }
    }

    /// `self ⊆ query`.
    fn within(self, query: &[u64]) -> bool {
        match self {
            Set::Word(word) => subset(&[word], query),
            Set::Bits(bits) => subset(bits, query),
            Set::Ids(ids) => ids.iter().all(|&id| {
                query
                    .get((id / 64) as usize)
                    .is_some_and(|word| word >> (id % 64) & 1 == 1)
            }),
        }
    }

    /// Appends the set to a bucket of `width` (its own width, a wider
    /// bitmap width, or [`ID_LISTS`]).
    fn push(self, out: &mut Vec<u64>, width: u64) {
        match (self, width) {
            (Set::Word(word), _) => Set::Bits(&[word]).push(out, width),
            (Set::Bits(bits), ID_LISTS) => {
                out.push(bits.iter().map(|word| u64::from(word.count_ones())).sum());
                out.extend(set_ids(bits));
            }
            (Set::Bits(bits), width) => {
                out.extend_from_slice(bits);
                out.resize(out.len() + width as usize - bits.len(), 0);
            }
            (Set::Ids(ids), _) => {
                out.push(ids.len() as u64);
                out.extend_from_slice(ids);
            }
        }
    }
}

/// The set being inserted: its bitmap and, when its bucket stores id
/// lists, its ascending ids (decoded once, not once per stored set).
struct NewSet<'a> {
    bits: &'a [u64],
    ids: Vec<u64>,
}

impl<'a> NewSet<'a> {
    fn of(bits: &'a [u64], lists: bool) -> Self {
        NewSet {
            bits,
            ids: if lists {
                set_ids(bits).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// `self ⊆ stored`.
    fn within(&self, stored: Set<'_>) -> bool {
        match stored {
            Set::Word(word) => subset(self.bits, &[word]),
            Set::Bits(bits) => subset(self.bits, bits),
            Set::Ids(have) => {
                let mut have = have.iter();
                self.ids
                    .iter()
                    .all(|&id| have.find(|&&stored| stored >= id) == Some(&id))
            }
        }
    }

    /// Appends the set to a bucket of `width` (see [`Set::push`]).
    fn push(&self, out: &mut Vec<u64>, width: u64) {
        if width == ID_LISTS {
            out.push(self.ids.len() as u64);
            out.extend_from_slice(&self.ids);
        } else {
            Set::Bits(self.bits).push(out, width);
        }
    }
}

/// The set stored in `words` (its count word included for id lists) of
/// a bucket of `width`.
fn set_at(words: &[u64], width: u64) -> Set<'_> {
    if width == ID_LISTS {
        Set::Ids(&words[1..])
    } else {
        Set::Bits(words)
    }
}

/// `a ⊆ b` on bitmaps of any widths (missing words are zero).
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &word)| word & !b.get(i).copied().unwrap_or(0) == 0)
}

/// `set` without trailing zero words, but at least one word long.
fn trimmed(set: &[u64]) -> &[u64] {
    match set.iter().rposition(|&word| word != 0) {
        Some(last) => &set[..=last],
        None => &[0],
    }
}

/// Converts an arena offset or length to its `u32` slot field.
fn word_offset(words: usize) -> u32 {
    u32::try_from(words).expect("visited arena exceeds 2^32 words")
}

/// The event ids of a sleep set.
pub(crate) fn ids_of(sleep: &[SleepEntry]) -> impl Iterator<Item = u64> + Clone + '_ {
    sleep.iter().map(|entry| entry.id.as_u64())
}

/// Runs `f` on the bitmap of `ids`: ⌈(max id + 1)/64⌉ words, at least
/// one, on the stack while the ids stay below `64 * BITMAP_WORDS`.
pub(crate) fn with_bitmap<R>(
    ids: impl Iterator<Item = u64> + Clone,
    f: impl FnOnce(&[u64]) -> R,
) -> R {
    let width = ids.clone().map(|id| id / 64 + 1).max().unwrap_or(1) as usize;
    let mut inline = [0u64; BITMAP_WORDS];
    let mut heap = Vec::new();
    let words = if width <= BITMAP_WORDS {
        &mut inline[..width]
    } else {
        heap.resize(width, 0);
        &mut heap[..]
    };
    for id in ids {
        words[(id / 64) as usize] |= 1 << (id % 64);
    }
    f(words)
}

/// The ids whose bits are set in `set`, ascending.
fn set_ids(set: &[u64]) -> impl Iterator<Item = u64> + Clone + '_ {
    set.iter()
        .enumerate()
        .flat_map(|(word_at, &word)| word_ids(word_at, word))
}

/// The ids whose bits are set in `word`, word `word_at` of a bitmap,
/// ascending.
fn word_ids(word_at: usize, word: u64) -> impl Iterator<Item = u64> + Clone {
    std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
        .take_while(|&rest| rest != 0)
        .map(move |rest| word_at as u64 * 64 + u64::from(rest.trailing_zeros()))
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use kset_prop::{choice, in_range, prop_assert, prop_assert_eq, vec_in, Runner, SplitMix64};
    use kset_sim::EventId;

    use super::*;

    impl<'a> Set<'a> {
        /// The set's event ids, ascending.
        pub(crate) fn ids(self) -> impl Iterator<Item = u64> + Clone + 'a {
            let (word, bits, ids): (u64, &[u64], &[u64]) = match self {
                Set::Word(word) => (word, &[], &[]),
                Set::Bits(bits) => (0, bits, &[]),
                Set::Ids(ids) => (0, &[], ids),
            };
            word_ids(0, word)
                .chain(set_ids(bits))
                .chain(ids.iter().copied())
        }
    }

    /// Event ids the generated sets draw from: inline, one-word,
    /// multi-word and id-list territory, so buckets leave their slot,
    /// widen and switch format mid-run.
    const IDS: [u64; 26] = [
        0, 1, 2, 3, 4, 5, 8, 13, 20, 22, 23, 30, 31, 32, 63, 64, 65, 100, 127, 128, 300, 511, 512,
        513, 777, 1000,
    ];

    /// Fingerprints whose low bits collide, so probes walk past occupied
    /// slots.
    const FINGERPRINTS: [u64; 6] = [0, 1, 16, 1 << 40, u64::MAX, 0x9e37_79b9_7f4a_7c15];

    /// Tables a run keeps side by side (merges go between them).
    const TABLES: usize = 3;

    /// One step: `(kind, table, other table, fingerprint, ids)`. Kinds:
    /// `0` raw insert, `1` insert unless covered (the checker's pattern),
    /// `2` covers probe, `3` merge `other` into `table`.
    type Op = (u8, usize, usize, usize, Vec<u64>);

    /// The reference model: each fingerprint's stored sets, in storage
    /// order, as plain id sets.
    #[derive(Clone, Default, Debug)]
    struct Model {
        buckets: BTreeMap<u64, Vec<BTreeSet<u64>>>,
        inserted: usize,
    }

    impl Model {
        fn covers(&self, fingerprint: u64, query: &BTreeSet<u64>) -> bool {
            self.buckets
                .get(&fingerprint)
                .is_some_and(|sets| sets.iter().any(|set| set.is_subset(query)))
        }

        fn insert(&mut self, fingerprint: u64, set: &BTreeSet<u64>) {
            let sets = self.buckets.entry(fingerprint).or_default();
            sets.retain(|stored| !set.is_subset(stored));
            sets.push(set.clone());
            self.inserted += 1;
        }

        fn merge(&mut self, other: &Model) {
            for (&fingerprint, sets) in &other.buckets {
                for set in sets {
                    if !self.covers(fingerprint, set) {
                        self.insert(fingerprint, set);
                    }
                }
            }
        }

        fn live(&self) -> u64 {
            self.buckets.values().map(|sets| sets.len() as u64).sum()
        }
    }

    fn sleep_of(ids: &BTreeSet<u64>) -> Vec<SleepEntry> {
        // Reversed, so encoding never relies on sorted input.
        ids.iter()
            .rev()
            .map(|&id| SleepEntry {
                id: EventId::from_u64(id),
                target: (id % 4) as usize,
            })
            .collect()
    }

    /// Each fingerprint's stored sets, in storage order, as the model
    /// keeps them.
    fn stored_sets(table: &Visited) -> BTreeMap<u64, Vec<BTreeSet<u64>>> {
        table
            .buckets()
            .map(|(fingerprint, bucket)| {
                (
                    fingerprint,
                    bucket.sets().map(|set| set.ids().collect()).collect(),
                )
            })
            .collect()
    }

    fn agree(
        table: &Visited,
        model: &Model,
        fingerprint: u64,
        query: &BTreeSet<u64>,
    ) -> Result<(), String> {
        let sleep = sleep_of(query);
        let seen = (
            table.covers(fingerprint, &sleep),
            table.live_entries(),
            table.inserted(),
            table.probe(fingerprint).ok().map(|at| {
                let sets = table.bucket(at).sets();
                sets.map(|set| set.ids().collect()).collect()
            }),
        );
        let want = (
            model.covers(fingerprint, query),
            model.live(),
            model.inserted,
            model.buckets.get(&fingerprint).cloned(),
        );
        if seen == want {
            Ok(())
        } else {
            Err(format!(
                "fp={fingerprint} query={query:?}: table {seen:?}, model {want:?}"
            ))
        }
    }

    /// Replays `ops` against real tables and models, checking after every
    /// step; then folds all tables into one in `order` and in index
    /// order, which must agree. Returns the compactions observed.
    fn replay(ops: &[Op], order: &[usize]) -> Result<u32, String> {
        replay_over(&FINGERPRINTS, ops, order)
    }

    /// [`replay`] with ops whose fingerprint field indexes `fingerprints`.
    fn replay_over(fingerprints: &[u64], ops: &[Op], order: &[usize]) -> Result<u32, String> {
        let mut tables: Vec<Visited> = (0..TABLES).map(|_| Visited::default()).collect();
        let mut models = vec![Model::default(); TABLES];
        let mut compactions = 0;
        for (step, (kind, table, other, fingerprint, ids)) in ops.iter().enumerate() {
            let fingerprint = fingerprints[*fingerprint];
            let set: BTreeSet<u64> = ids.iter().copied().collect();
            let dead_before = tables[*table].dead;
            match kind {
                0 => {
                    tables[*table].insert(fingerprint, &sleep_of(&set));
                    models[*table].insert(fingerprint, &set);
                }
                1 => {
                    if !models[*table].covers(fingerprint, &set) {
                        models[*table].insert(fingerprint, &set);
                    }
                    if !tables[*table].covers(fingerprint, &sleep_of(&set)) {
                        tables[*table].insert(fingerprint, &sleep_of(&set));
                    }
                }
                2 => {}
                _ if table != other => {
                    let source = std::mem::take(&mut tables[*other]);
                    tables[*table].merge(&source);
                    tables[*other] = source;
                    let source = models[*other].clone();
                    models[*table].merge(&source);
                }
                _ => {}
            }
            if tables[*table].dead < dead_before {
                compactions += 1;
            }
            agree(&tables[*table], &models[*table], fingerprint, &set)
                .map_err(|message| format!("step {step} {:?}: {message}", ops[step]))?;
        }
        let fold = |order: &mut dyn Iterator<Item = usize>| {
            let mut folded = Visited::default();
            for at in order {
                folded.merge(&tables[at]);
            }
            folded
        };
        let shuffled = fold(&mut order.iter().copied());
        let straight = fold(&mut (0..TABLES));
        let mut everything = Model::default();
        for model in &models {
            everything.merge(model);
        }
        if stored_sets(&straight) != everything.buckets {
            return Err("folded tables store other sets than the model".into());
        }
        if shuffled.live_entries() != everything.live()
            || straight.live_entries() != everything.live()
        {
            return Err(format!(
                "folded live entries {} / {} vs model {}",
                shuffled.live_entries(),
                straight.live_entries(),
                everything.live()
            ));
        }
        for (_, _, _, fingerprint, ids) in ops {
            let fingerprint = fingerprints[*fingerprint];
            let query: BTreeSet<u64> = ids.iter().copied().collect();
            let want = everything.covers(fingerprint, &query);
            let sleep = sleep_of(&query);
            if shuffled.covers(fingerprint, &sleep) != want
                || straight.covers(fingerprint, &sleep) != want
            {
                return Err(format!(
                    "folded tables disagree on fp={fingerprint} query={query:?}"
                ));
            }
        }
        Ok(compactions)
    }

    /// Inserts `ids` under `fingerprint` unless the table covers them.
    fn absorb_ids(table: &mut Visited, fingerprint: u64, ids: &[u64]) {
        let sleep = sleep_of(&ids.iter().copied().collect());
        if !table.covers(fingerprint, &sleep) {
            table.insert(fingerprint, &sleep);
        }
    }

    /// The slot holding `fingerprint`.
    fn find(table: &Visited, fingerprint: u64) -> Option<Slot> {
        table.probe(fingerprint).ok().map(|at| table.index.get(at))
    }

    /// The inline sets `fingerprint` holds in its slot (`None`: in the
    /// arena or absent).
    fn inline_count(table: &Visited, fingerprint: u64) -> Option<usize> {
        find(table, fingerprint)?.inline_count()
    }

    /// Absorbs `sets` into a fresh table under `fingerprint`.
    fn table_of(fingerprint: u64, sets: &[Vec<u64>]) -> Visited {
        let mut table = Visited::default();
        for ids in sets {
            absorb_ids(&mut table, fingerprint, ids);
        }
        table
    }

    #[test]
    fn table_matches_reference_model() {
        let fp = FINGERPRINTS[0];
        // A subset replacing two supersets in a bucket that is not the
        // arena's tail, as one-word bitmaps (id 40 keeps them out of the
        // slot) and as id lists: the model agrees, and the bucket is
        // rebuilt over its old words, the freed ones dead.
        for big in [40, 600] {
            let ops: Vec<Op> = vec![
                (0, 0, 0, 0, vec![1, big]),
                (0, 0, 0, 0, vec![1, big + 1]),
                (0, 0, 0, 1, vec![40]),
                (0, 0, 0, 0, vec![1]),
            ];
            replay(&ops, &[0, 1, 2]).unwrap();
            let mut table = Visited::default();
            for (_, _, _, fingerprint, ids) in &ops[..3] {
                absorb_ids(&mut table, FINGERPRINTS[*fingerprint], ids);
            }
            let (before, words) = (find(&table, fp).unwrap().range(), table.arena.len());
            absorb_ids(&mut table, fp, &[1]);
            let after = find(&table, fp).unwrap().range();
            assert_eq!(after.0, before.0, "rebuilt in place");
            assert_eq!(table.arena.len(), words);
            assert!(after.1 < before.1);
            assert_eq!(table.dead, before.1 - after.1);
        }
        // A set is held inline exactly when its largest id is below 23;
        // each largest id is inserted, queried around, then superseded
        // by a subset and by the empty set.
        for top in [22, 23, 30, 31, 32, 63, 64, 511, 512] {
            let ops: Vec<Op> = vec![
                (1, 0, 0, 0, vec![1, top]),
                (2, 0, 0, 0, vec![top]),
                (2, 0, 0, 0, vec![1, top, top + 1]),
                (1, 0, 0, 0, vec![2]),
                (0, 0, 0, 0, vec![top]),
                (2, 0, 0, 0, vec![1, top]),
                (0, 0, 0, 0, vec![]),
                (2, 0, 0, 0, vec![]),
                (3, 1, 0, 0, vec![]),
            ];
            replay(&ops, &[1, 0, 2]).unwrap();
            let table = table_of(fp, &[vec![1, top]]);
            assert_eq!(
                inline_count(&table, fp),
                (top < 23).then_some(1),
                "top {top}"
            );
        }
        // The empty set covers every query, alone or beside sets a raw
        // insert put after it.
        let ops: Vec<Op> = vec![
            (1, 0, 0, 0, vec![]),
            (2, 0, 0, 0, vec![5]),
            (0, 0, 0, 0, vec![1]),
            (0, 0, 0, 0, vec![600]),
            (2, 0, 0, 0, vec![]),
            (3, 1, 0, 0, vec![]),
        ];
        replay(&ops, &[0, 1, 2]).unwrap();
        assert_eq!(inline_count(&table_of(fp, &[vec![]]), fp), Some(1));
        // A bucket of exactly the inline capacity stays in the slot; one
        // more set moves it to the arena; a subset of all of them shrinks
        // it to one set there again; merges and the sharded fold cross
        // both layouts.
        let singles: Vec<Vec<u64>> = (0..INLINE as u64 + 1).map(|id| vec![id, 20]).collect();
        let full = table_of(fp, &singles[..INLINE]);
        assert_eq!(inline_count(&full, fp), Some(INLINE));
        let mut over = table_of(fp, &singles);
        assert_eq!(inline_count(&over, fp), None);
        assert_eq!(over.arena.len(), 2 + INLINE);
        let mut ops: Vec<Op> = singles
            .iter()
            .map(|ids| (1, 0, 0, 0, ids.clone()))
            .collect();
        ops.extend(
            singles[..INLINE]
                .iter()
                .map(|ids| (1, 1, 0, 0, ids.clone())),
        );
        ops.extend([
            (3, 2, 0, 0, vec![]),
            (3, 1, 0, 0, vec![]),
            (1, 0, 0, 0, vec![20]),
            (2, 0, 0, 0, vec![20, 21]),
            (3, 2, 1, 0, vec![]),
            (3, 1, 0, 0, vec![]),
        ]);
        replay(&ops, &[2, 1, 0]).unwrap();
        absorb_ids(&mut over, fp, &[20]);
        assert_eq!(
            (over.live_entries(), find(&over, fp).unwrap().range().1),
            (1, 2)
        );
        let mut sharded = Sharded::new(SHARDS);
        let mut serial = Visited::default();
        for sets in [
            &singles[..INLINE],
            &singles[..],
            &singles[2..],
            &[vec![20]][..],
        ] {
            let table = table_of(fp, sets);
            serial.merge(&table);
            sharded.fold(&[table.partition(SHARDS)], 2);
            let shard = &sharded.tables()[shard_of(fp, SHARDS)];
            assert_eq!(stored_sets(shard), stored_sets(&serial));
        }
        large_tables_match_reference_model();
        let op = (
            in_range(0u8..4),
            in_range(0..TABLES),
            in_range(0..TABLES),
            in_range(0..FINGERPRINTS.len()),
            vec_in(choice(IDS.to_vec()), 0..6),
        );
        let orders = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        Runner::new("table_matches_reference_model").cases(64).run(
            (vec_in(op, 0..600), choice(orders)),
            |(ops, order)| {
                let outcome = replay(&ops, &order);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
                Ok(())
            },
        );
    }

    /// The reference-model replay on tables that cross [`STEP_FROM`] slots
    /// and grow through sizes that are not powers of two. While the index
    /// has `slots` slots, three fingerprints whose low 32 bits are
    /// `slots - 1` modulo `slots` arrive: they share the last slot as
    /// their home, so their probe runs wrap to slot 0.
    fn large_tables_match_reference_model() {
        let mut rng = SplitMix64::new(29);
        let mut fingerprints = Vec::new();
        let mut ops: Vec<Op> = Vec::new();
        // (slots, the last wrapping fingerprint's op)
        let mut wraps = Vec::new();
        let absorb = |fingerprint: u64, ops: &mut Vec<Op>, fingerprints: &mut Vec<u64>| {
            let at = fingerprints.len();
            fingerprints.push(fingerprint);
            // Mostly inline buckets, every ninth in the arena (id 30),
            // every fifth with a second set, one table in three absorbing
            // it: merges then cross tables of different sizes.
            let ids = if at % 9 == 0 {
                vec![1, 30]
            } else {
                vec![at as u64 % 23]
            };
            ops.push((1, at % 3 / 2, 0, at, ids));
            if at % 5 == 0 {
                ops.push((1, at % 3 / 2, 0, at, vec![22]));
            }
        };
        // Fingerprint counts at which the index has each size: 5,120
        // slots hold 3,073..=3,840 fingerprints, and so on.
        for (slots, count) in [
            (5_120, 3_500),
            (6_400, 4_300),
            (8_000, 5_500),
            (10_000, 7_000),
        ] {
            while fingerprints.len() < count {
                absorb(rng.next_u64(), &mut ops, &mut fingerprints);
            }
            for k in 1..=3u64 {
                absorb(
                    (k << 40) | (k * slots as u64 - 1),
                    &mut ops,
                    &mut fingerprints,
                );
            }
            wraps.push((slots, ops.len() - 1));
        }
        ops.extend([
            (2, 0, 0, 0, vec![5]),
            (3, 2, 0, 0, vec![]),
            (3, 2, 1, 1, vec![]),
            (3, 1, 2, fingerprints.len() - 1, vec![]),
        ]);
        replay_over(&fingerprints, &ops, &[2, 0, 1]).unwrap();
        // The same absorbs in one table: the index passes through each
        // size, and each third wrapping fingerprint sits before the home
        // slot it shares with the other two.
        let mut table = Visited::default();
        for (step, (_, _, _, at, ids)) in ops.iter().enumerate() {
            absorb_ids(&mut table, fingerprints[*at], ids);
            if let Some(&(slots, _)) = wraps.iter().find(|&&(_, last)| last == step) {
                assert_eq!(table.index.slots, slots);
                let found = table.probe(fingerprints[*at]).unwrap();
                assert!(found < slots - 1, "slot {found} of {slots}: no wrap");
            }
        }
    }

    #[test]
    fn large_tables_stay_between_60_and_75_percent_load() {
        let mut rng = SplitMix64::new(31);
        let mut table = Visited::default();
        let mut sizes = Vec::new();
        for _ in 0..40_000 {
            let before = table.index.slots;
            with_bitmap([1u64].into_iter(), |set| {
                table.absorb_bits(rng.next_u64(), set)
            });
            let slots = table.index.slots;
            let load = table.fingerprints as f64 / slots as f64;
            assert!(load <= 0.75, "load {load} at {slots} slots");
            if slots != before {
                sizes.push(slots);
            }
            if slots > STEP_FROM {
                assert!(load >= 0.6, "load {load} at {slots} slots");
            }
        }
        assert_eq!(
            sizes,
            [
                16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 5_120, 6_400, 8_000, 10_000,
                12_500, 15_625, 19_531, 24_413, 30_516, 38_145, 47_681, 59_601
            ]
        );
    }

    #[test]
    fn sharded_fold_matches_serial_merge() {
        // An entry: a fingerprint (one of FINGERPRINTS, its high bits
        // shifted so entries spread over the shards) and a sleep set.
        let entry = (
            in_range(0..FINGERPRINTS.len()),
            in_range(0u64..96),
            vec_in(choice(IDS.to_vec()), 0..6),
        );
        let wave = vec_in(vec_in(entry, 0..40), 1..6);
        Runner::new("sharded_fold_matches_serial_merge").cases(48).run(
            (
                vec_in(wave, 1..5),
                choice(vec![1usize, 2, 3, 7]),
                choice(vec![1usize, 16, SHARDS]),
            ),
            |(waves, threads, shards)| {
                let mut serial = Visited::default();
                let mut sharded = Sharded::new(shards);
                let mut queries = Vec::new();
                for wave in &waves {
                    let tables: Vec<Visited> = wave
                        .iter()
                        .map(|entries| {
                            let mut table = Visited::default();
                            for (at, high, ids) in entries {
                                let fp = FINGERPRINTS[*at].wrapping_add(high << 32);
                                absorb_ids(&mut table, fp, ids);
                                queries.push((fp, ids.clone()));
                            }
                            table
                        })
                        .collect();
                    for table in &tables {
                        serial.merge(table);
                    }
                    let parts: Vec<Partitioned> =
                        tables.into_iter().map(|table| table.partition(shards)).collect();
                    sharded.fold(&parts, threads);
                    prop_assert!(
                        sharded.live_entries() == serial.live_entries(),
                        "live entries {} sharded, {} serial",
                        sharded.live_entries(),
                        serial.live_entries()
                    );
                }
                // The store's records, as a checkpoint writes them, fold
                // back into a store that answers alike.
                let mut words = Vec::new();
                sharded
                    .write_records(|record| {
                        words.extend_from_slice(record);
                        Ok::<(), ()>(())
                    })
                    .unwrap();
                let records = Partitioned::from_records(words, shards).unwrap();
                let mut reloaded = Sharded::new(shards);
                reloaded.fold(&[records], threads);
                prop_assert_eq!(reloaded.live_entries(), serial.live_entries());
                // Every inserted set, without its least id, and with one
                // more id, as queries.
                for (fp, ids) in queries {
                    let set: BTreeSet<u64> = ids.into_iter().collect();
                    let smaller = set.iter().skip(1).copied().collect();
                    let larger = |id| set.iter().copied().chain([id]).collect();
                    for query in [set.clone(), smaller, larger(3), larger(513)] {
                        let sleep = sleep_of(&query);
                        let want = serial.covers(fp, &sleep);
                        let got = (sharded.covers(fp, &sleep), reloaded.covers(fp, &sleep));
                        prop_assert!(got == (want, want), "fp={fp} query={query:?}");
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn long_sequences_compact_repeatedly() {
        let mut rng = SplitMix64::new(7);
        let mut pick = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        let ops: Vec<Op> = (0..20_000)
            .map(|_| {
                let kind = [0, 1, 1, 2, 3][pick(5)] as u8;
                let ids = (0..pick(6)).map(|_| IDS[pick(IDS.len())]).collect();
                (
                    kind,
                    pick(TABLES),
                    pick(TABLES),
                    pick(FINGERPRINTS.len()),
                    ids,
                )
            })
            .collect();
        let compactions = replay(&ops, &[2, 0, 1]).unwrap();
        assert!(compactions >= 3, "only {compactions} compactions");
    }

    /// Hashes a sequence of words (little-endian bytes, FNV-1a).
    fn words_hash(words: &[u64]) -> u64 {
        let bytes: Vec<u8> = words.iter().flat_map(|word| word.to_le_bytes()).collect();
        kset_prop::fnv64(&bytes)
    }

    /// The `(fingerprint, set count, each set's id count and ids…)`
    /// sequence [`Visited::buckets`] yields, flattened.
    fn bucket_words(table: &Visited) -> Vec<u64> {
        let mut words = Vec::new();
        for (fingerprint, bucket) in table.buckets() {
            words.push(fingerprint);
            words.push(bucket.sets().count() as u64);
            for set in bucket.sets() {
                words.push(set.ids().count() as u64);
                words.extend(set.ids());
            }
        }
        words
    }

    /// A fixed absorb sequence over `count` fingerprints, some drawn far
    /// more often than others (with 300 fingerprints, buckets of 1 to
    /// about 25 sets), and sets of one to three ids, mostly below 24, some
    /// of 24–40 and the odd one at 512 or above.
    fn golden_table(seed: u64, count: u64, absorbs: usize) -> Visited {
        let mut rng = SplitMix64::new(seed);
        let fingerprints: Vec<u64> = (0..count).map(|_| rng.next_u64()).collect();
        let mut table = Visited::default();
        for _ in 0..absorbs {
            let skew = rng.next_u64() % count;
            let fingerprint = fingerprints[(rng.next_u64() % (skew + 1)) as usize];
            let ids: Vec<u64> = (0..1 + rng.next_u64() % 3)
                .map(|_| match rng.next_u64() % 128 {
                    0 => 512 + rng.next_u64() % 100,
                    1..=8 => 24 + rng.next_u64() % 17,
                    _ => rng.next_u64() % 24,
                })
                .collect();
            with_bitmap(ids.into_iter(), |set| table.absorb_bits(fingerprint, set));
        }
        table
    }

    #[test]
    fn bucket_and_partition_order_is_pinned() {
        // Campaign snapshots and the wave store's fold order follow the
        // buckets' index order and each bucket's storage order, in the
        // record format `partition` writes; a layout change must keep
        // both byte for byte.
        let table = golden_table(23, 300, 2500);
        let largest = table.buckets().map(|(_, b)| b.sets().count()).max();
        assert!(largest >= Some(9), "largest bucket {largest:?}");
        let buckets = bucket_words(&table);
        let live = table.live_entries();
        let partitioned = table.partition(SHARDS);
        let mut partition = partitioned.words.clone();
        partition.extend(partitioned.bounds.iter().map(|&at| at as u64));
        // Fold it with a second table, as a wave barrier would.
        let mut store = Sharded::new(SHARDS);
        store.fold(
            &[partitioned, golden_table(24, 300, 1500).partition(SHARDS)],
            2,
        );
        let folded: Vec<u64> = store.tables().iter().flat_map(bucket_words).collect();
        assert_eq!(
            (
                live,
                words_hash(&buckets),
                words_hash(&partition),
                words_hash(&folded)
            ),
            (
                1812,
                8_633_325_139_716_097_865,
                14_310_891_791_306_363_473,
                7_814_443_036_286_962_269
            )
        );
    }

    #[test]
    fn order_past_the_step_threshold_is_pinned() {
        // A table past STEP_FROM slots, at a size that is not a power of
        // two: its index order follows the modulo home slot and the
        // wrapping probe, and campaign snapshots follow that order.
        let table = golden_table(25, 20_000, 24_000);
        assert_eq!(
            (table.index.slots, table.fingerprints, table.live_entries()),
            (15_625, 10_963, 22_705)
        );
        let words = bucket_words(&table);
        let partitioned = table.partition(SHARDS);
        let mut partition = partitioned.words.clone();
        partition.extend(partitioned.bounds.iter().map(|&at| at as u64));
        assert_eq!(
            (words_hash(&words), words_hash(&partition)),
            (14_950_074_382_307_773_450, 17_091_544_007_652_412_694)
        );
    }

    #[test]
    fn slots_never_straddle_a_cache_line() {
        for slots in [MIN_SLOTS, 64, 1 << 12, 5_120, 6_400, 19_531] {
            let index = Index::new(slots);
            for at in [0, 1, slots - 1] {
                assert_eq!(
                    index.at(at).as_ptr().align_offset(SLOT),
                    0,
                    "slot {at} of {slots}"
                );
            }
        }
    }

    #[test]
    fn bitmaps_round_trip_ids() {
        for ids in [vec![], vec![0], vec![63, 64], vec![5, 511, 512, 4000]] {
            let decoded: Vec<u64> =
                with_bitmap(ids.iter().copied(), |bits| set_ids(bits).collect());
            assert_eq!(decoded, ids);
        }
    }
}
