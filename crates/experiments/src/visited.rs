//! The checker's visited table: for every state fingerprint, the minimal
//! antichain of sleep sets the state was expanded under, stored as
//! event-id bitmaps in one flat arena.
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
//! * **Index.** An open-addressing table of `(fingerprint, start, len)`
//!   slots, probed linearly from the fingerprint's low bits. Fingerprints
//!   are [`kset_sim::Mix64`]-avalanched digests, already uniform over
//!   `u64`, so they index the table directly; re-hashing them costs time
//!   and adds no dispersion (`PERFORMANCE.md`).
//! * **Arena.** One `Vec<u64>` holding every bucket contiguously:
//!   `[width][set 0][set 1]…`, each set a bitmap of `width` words with
//!   bit `id` set for every sleeping event id. Event ids are per-run
//!   creation numbers, so a bitmap is one word while ids stay below 64
//!   (the `n = 4` certification's largest is 18) and widens as needed
//!   beyond that; a bucket's width is the widest set it ever held.
//!   `a ⊆ b` is then a word-wise `a & !b == 0` — one AND per stored set
//!   at one word — and a query is encoded once per probe, not once per
//!   stored set. No code reads a stored set's target process, so the
//!   table keeps ids only.
//! * **Id lists.** A set with an id of `64 * BITMAP_WORDS` or more would
//!   make every set of its bucket that wide, and every subset test that
//!   slow, however few ids it holds. Its bucket switches for good to
//!   `[0][count][ids…]…`: each set its ascending ids, so cost follows the
//!   number of ids rather than their size. The checker's runs stay far
//!   below that; the format keeps the table linear for any id, such as
//!   the large synthetic ids of the campaign shard tests.
//! * **Rewrites.** An insertion into the bucket at the arena end edits it
//!   in place. Any other changed bucket is rewritten over its old words
//!   when it still fits (a subset replaced stored supersets), its freed
//!   tail words becoming dead, and at the arena end otherwise, all its
//!   old words dead. Once dead words pass a quarter of the arena,
//!   [`Visited`] compacts it *in place*, sliding live buckets down in
//!   start order — compacting into a second buffer would double the
//!   table's peak footprint at exactly its largest moment.
//!
//! # Shards
//!
//! The store every task of a wave prunes against is a [`Sharded`] store:
//! one table per shard, a fingerprint living in shard [`shard_of`]. Each
//! task groups its own table's entries by shard before it returns
//! ([`Visited::partition`]), in parallel with the other tasks of its
//! wave; at the wave barrier [`Sharded::fold`] folds every shard on one
//! worker, the wave's tables in claim order and each table's entries in
//! index order. That is the order a single table would have absorbed the
//! shard's entries in, so a shard's content is independent of the worker
//! count. The checker's in-memory store has [`SHARDS`] shards of
//! `Visited`; a disk-backed campaign has `--campaign-shards` shards of
//! [`crate::campaign::shard::Shard`], each a `Visited` plus its log
//! buffer, partitioned by the same [`shard_of`].

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
/// uniform. The in-memory store and the campaign store both partition by
/// it, so campaign directories keep their layout.
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

/// Arenas shorter than this (in words) are never compacted: dead words
/// there cost less than the compaction's bookkeeping.
const COMPACT_MIN_WORDS: usize = 256;

/// One index slot: a fingerprint and the arena range of its bucket.
#[derive(Clone, Copy, Default, Debug)]
struct Slot {
    fingerprint: u64,
    /// Arena offset of the bucket's width word.
    start: u32,
    /// Bucket length in words, width word included; `0` marks an empty
    /// slot (an occupied bucket always holds at least one set).
    len: u32,
}

/// A visited table: node fingerprints already expanded, each with the
/// minimal antichain of sleep sets it was expanded under (see the
/// [module docs](self) for the semantics and the memory layout).
#[derive(Default, Debug)]
pub struct Visited {
    /// Open-addressing index (power-of-two length, or empty).
    index: Vec<Slot>,
    /// Occupied index slots.
    fingerprints: usize,
    /// Every bucket's words, live and dead.
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
        self.find(fingerprint)
            .is_some_and(|slot| with_bitmap(ids_of(sleep), |query| self.bucket(slot).covers(query)))
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

    /// Bytes the table keeps resident: the index plus the used part of
    /// the arena (dead words included until the next compaction).
    pub fn resident_bytes(&self) -> u64 {
        (self.index.len() * std::mem::size_of::<Slot>() + self.arena.len() * 8) as u64
    }

    /// Inserts an already-encoded set bitmap unless the table already
    /// covers it, with one index probe; returns whether it was inserted.
    pub(crate) fn absorb_bits(&mut self, fingerprint: u64, set: &[u64]) -> bool {
        let probe = self.probe(fingerprint);
        if let Ok(at) = probe {
            if self.bucket(&self.index[at]).covers(set) {
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
        let at = match probe {
            Ok(at) => at,
            Err(mut at) => {
                if (self.fingerprints + 1) * 4 > self.index.len() * 3 {
                    self.grow();
                    at = self.probe(fingerprint).unwrap_err();
                }
                // Open an empty bucket at the arena's tail.
                self.index[at] = Slot {
                    fingerprint,
                    start: word_offset(self.arena.len()),
                    len: 1,
                };
                self.arena.push(if bits.len() > BITMAP_WORDS {
                    ID_LISTS
                } else {
                    bits.len() as u64
                });
                self.fingerprints += 1;
                at
            }
        };
        let Slot { start, len, .. } = self.index[at];
        let (start, len) = (start as usize, len as usize);
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
            for stored in self.bucket(&self.index[at]).sets() {
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
        if start + len == self.arena.len() {
            // The arena's tail: edit it in place.
            self.arena.truncate(kept);
            self.arena.extend_from_slice(&fresh);
        } else if size <= len {
            // A subset replaced supersets: the bucket still fits.
            self.arena[kept..kept + fresh.len()].copy_from_slice(&fresh);
            self.dead += len - size;
        } else {
            self.dead += len;
            self.index[at].start = word_offset(self.arena.len());
            self.arena.extend_from_within(start..kept);
            self.arena.extend_from_slice(&fresh);
        }
        self.index[at].len = word_offset(size);
        self.scratch = fresh;
        if self.arena.len() >= COMPACT_MIN_WORDS && self.dead * 4 > self.arena.len() {
            self.compact();
        }
    }

    /// The stored `(fingerprint, bucket)` pairs, in index order
    /// (deterministic for a given insertion history).
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u64, Bucket<'_>)> {
        self.index
            .iter()
            .filter(|slot| slot.len != 0)
            .map(|slot| (slot.fingerprint, self.bucket(slot)))
    }

    fn bucket(&self, slot: &Slot) -> Bucket<'_> {
        let start = slot.start as usize;
        Bucket {
            width: self.arena[start],
            body: &self.arena[start + 1..start + slot.len as usize],
        }
    }

    fn find(&self, fingerprint: u64) -> Option<&Slot> {
        self.probe(fingerprint).ok().map(|at| &self.index[at])
    }

    /// `Ok(slot)` holding `fingerprint`, or `Err(slot)`: the empty slot
    /// its probe sequence ends at (`0` in an unallocated index).
    fn probe(&self, fingerprint: u64) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut at = fingerprint as usize & mask;
        loop {
            let slot = &self.index[at];
            if slot.len == 0 {
                return Err(at);
            }
            if slot.fingerprint == fingerprint {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the index (or allocates the first one) and re-places every
    /// occupied slot.
    fn grow(&mut self) {
        let capacity = (self.index.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.index, vec![Slot::default(); capacity]);
        let mask = capacity - 1;
        for slot in old.into_iter().filter(|slot| slot.len != 0) {
            let mut at = slot.fingerprint as usize & mask;
            while self.index[at].len != 0 {
                at = (at + 1) & mask;
            }
            self.index[at] = slot;
        }
    }

    /// Drops the dead words by sliding every live bucket down over them,
    /// in start order, inside the arena itself.
    fn compact(&mut self) {
        let mut order: Vec<u32> = (0..self.index.len())
            .filter(|&at| self.index[at].len != 0)
            .map(|at| at as u32)
            .collect();
        order.sort_unstable_by_key(|&at| self.index[at as usize].start);
        let mut write = 0;
        for at in order {
            let slot = &mut self.index[at as usize];
            let (start, len) = (slot.start as usize, slot.len as usize);
            self.arena.copy_within(start..start + len, write);
            slot.start = word_offset(write);
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
        let occupied = || self.index.iter().filter(|slot| slot.len != 0);
        let mut bounds = vec![0; shards + 1];
        for slot in occupied() {
            bounds[shard_of(slot.fingerprint, shards) + 1] += 2 + slot.len as usize;
        }
        for shard in 0..shards {
            bounds[shard + 1] += bounds[shard];
        }
        let mut next = bounds.clone();
        let mut words = vec![0; bounds[shards]];
        for slot in occupied() {
            let at = &mut next[shard_of(slot.fingerprint, shards)];
            let (start, len) = (slot.start as usize, slot.len as usize);
            words[*at] = slot.fingerprint;
            words[*at + 1] = len as u64;
            words[*at + 2..*at + 2 + len].copy_from_slice(&self.arena[start..start + len]);
            *at += 2 + len;
        }
        Partitioned { words, bounds }
    }
}

impl Partitioned {
    /// The shard count the table was partitioned for.
    fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Folds the table's entries of `shard` into `into`, in index order,
    /// each bucket's sets in storage order.
    fn fold_into<T: ShardTable>(&self, shard: usize, into: &mut T) {
        let mut rest = &self.words[self.bounds[shard]..self.bounds[shard + 1]];
        while let [fingerprint, len, tail @ ..] = rest {
            let (bucket, next) = tail.split_at(*len as usize);
            let bucket = Bucket {
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

/// The table one shard of a [`Sharded`] store keeps.
pub trait ShardTable: Default + Send {
    /// The subset-rule query ([`Visited::covers`]).
    fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool;

    /// Inserts a set, given as a bitmap with bit `id` set for each of its
    /// event ids, unless the table already covers it; returns whether it
    /// was inserted.
    fn absorb_bits(&mut self, fingerprint: u64, set: &[u64]) -> bool;

    /// Minimal entries currently stored.
    fn live_entries(&self) -> u64;
}

impl ShardTable for Visited {
    fn covers(&self, fingerprint: u64, sleep: &[SleepEntry]) -> bool {
        Visited::covers(self, fingerprint, sleep)
    }

    fn absorb_bits(&mut self, fingerprint: u64, set: &[u64]) -> bool {
        Visited::absorb_bits(self, fingerprint, set)
    }

    fn live_entries(&self) -> u64 {
        Visited::live_entries(self)
    }
}

/// A visited store partitioned into shards by [`shard_of`] (see the
/// [module docs](self#shards)).
#[derive(Debug)]
pub struct Sharded<T> {
    tables: Vec<T>,
}

impl<T: ShardTable> Sharded<T> {
    /// A store of `shards` empty tables.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        Sharded {
            tables: (0..shards).map(|_| T::default()).collect(),
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

    /// Minimal entries stored across all shards.
    pub fn live_entries(&self) -> u64 {
        self.tables.iter().map(T::live_entries).sum()
    }

    /// The shard tables, in shard order.
    pub fn tables(&self) -> &[T] {
        &self.tables
    }

    /// The shard tables, mutably, in shard order.
    pub fn tables_mut(&mut self) -> &mut [T] {
        &mut self.tables
    }
}

/// One fingerprint's stored sets: `width`-word bitmaps, or id lists when
/// `width` is [`ID_LISTS`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bucket<'a> {
    width: u64,
    body: &'a [u64],
}

impl<'a> Bucket<'a> {
    /// The stored sets, in storage order.
    pub(crate) fn sets(&self) -> Sets<'a> {
        Sets {
            width: self.width,
            rest: self.body,
        }
    }

    /// Whether some stored set is a subset of `query`.
    fn covers(&self, query: &[u64]) -> bool {
        if self.width == 1 {
            let allowed = query[0];
            return self.body.iter().any(|&set| set & !allowed == 0);
        }
        self.sets().any(|set| set.within(query))
    }
}

/// Iterator over a [`Bucket`]'s sets.
#[derive(Clone, Debug)]
pub(crate) struct Sets<'a> {
    width: u64,
    rest: &'a [u64],
}

impl<'a> Iterator for Sets<'a> {
    type Item = Set<'a>;

    fn next(&mut self) -> Option<Set<'a>> {
        if self.rest.is_empty() {
            return None;
        }
        let span = if self.width == ID_LISTS {
            1 + self.rest[0] as usize
        } else {
            self.width as usize
        };
        let (set, rest) = self.rest.split_at(span);
        self.rest = rest;
        Some(set_at(set, self.width))
    }
}

/// One stored sleep set.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Set<'a> {
    /// A bitmap of event ids.
    Bits(&'a [u64]),
    /// Ascending event ids.
    Ids(&'a [u64]),
}

impl<'a> Set<'a> {
    /// The set's event ids, ascending.
    pub(crate) fn ids(self) -> impl Iterator<Item = u64> + Clone + 'a {
        let (bits, ids): (&[u64], &[u64]) = match self {
            Set::Bits(bits) => (bits, &[]),
            Set::Ids(ids) => (&[], ids),
        };
        set_ids(bits).chain(ids.iter().copied())
    }

    /// Runs `f` on the set as a bitmap.
    pub(crate) fn with_bits<R>(self, f: impl FnOnce(&[u64]) -> R) -> R {
        match self {
            Set::Bits(bits) => f(bits),
            Set::Ids(ids) => with_bitmap(ids.iter().copied(), f),
        }
    }

    /// `self ⊆ query`.
    fn within(self, query: &[u64]) -> bool {
        match self {
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
    set.iter().enumerate().flat_map(|(word_at, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| word_at as u64 * 64 + u64::from(rest.trailing_zeros()))
    })
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use kset_prop::{choice, in_range, prop_assert, vec_in, Runner, SplitMix64};
    use kset_sim::EventId;

    use super::*;

    /// Event ids the generated sets draw from: one-word, multi-word and
    /// id-list territory, so buckets widen and switch format mid-run.
    const IDS: [u64; 19] = [
        0, 1, 2, 3, 5, 8, 13, 63, 64, 65, 100, 127, 128, 300, 511, 512, 513, 777, 1000,
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
        );
        let want = (
            model.covers(fingerprint, query),
            model.live(),
            model.inserted,
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
        let mut tables: Vec<Visited> = (0..TABLES).map(|_| Visited::default()).collect();
        let mut models = vec![Model::default(); TABLES];
        let mut compactions = 0;
        for (step, (kind, table, other, fingerprint, ids)) in ops.iter().enumerate() {
            let fingerprint = FINGERPRINTS[*fingerprint];
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
            let fingerprint = FINGERPRINTS[*fingerprint];
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

    #[test]
    fn table_matches_reference_model() {
        // A subset replacing two supersets in a bucket that is not the
        // arena's tail, as bitmaps and as id lists: the model agrees, and
        // the bucket is rebuilt over its old words, the freed ones dead.
        for big in [2, 600] {
            let ops: Vec<Op> = vec![
                (0, 0, 0, 0, vec![1, big]),
                (0, 0, 0, 0, vec![1, big + 1]),
                (0, 0, 0, 1, vec![3]),
                (0, 0, 0, 0, vec![1]),
            ];
            replay(&ops, &[0, 1, 2]).unwrap();
            let mut table = Visited::default();
            for (_, _, _, fingerprint, ids) in &ops[..3] {
                absorb_ids(&mut table, FINGERPRINTS[*fingerprint], ids);
            }
            let (before, words) = (*table.find(FINGERPRINTS[0]).unwrap(), table.arena.len());
            absorb_ids(&mut table, FINGERPRINTS[0], &[1]);
            let after = *table.find(FINGERPRINTS[0]).unwrap();
            assert_eq!(after.start, before.start, "rebuilt in place");
            assert_eq!(table.arena.len(), words);
            assert!(after.len < before.len);
            assert_eq!(table.dead, (before.len - after.len) as usize);
        }
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
                let mut sharded = Sharded::<Visited>::new(shards);
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
                // Every inserted set, without its least id, and with one
                // more id, as queries.
                for (fp, ids) in queries {
                    let set: BTreeSet<u64> = ids.into_iter().collect();
                    let smaller = set.iter().skip(1).copied().collect();
                    let larger = |id| set.iter().copied().chain([id]).collect();
                    for query in [set.clone(), smaller, larger(3), larger(513)] {
                        let sleep = sleep_of(&query);
                        prop_assert!(
                            sharded.covers(fp, &sleep) == serial.covers(fp, &sleep),
                            "fp={fp} query={query:?}"
                        );
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

    #[test]
    fn bitmaps_round_trip_ids() {
        for ids in [vec![], vec![0], vec![63, 64], vec![5, 511, 512, 4000]] {
            let decoded: Vec<u64> =
                with_bitmap(ids.iter().copied(), |bits| set_ids(bits).collect());
            assert_eq!(decoded, ids);
        }
    }
}
