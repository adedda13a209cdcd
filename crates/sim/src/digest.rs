//! Stable state digests for schedule-space exploration.
//!
//! The model checker (`kset-experiments::checker`) deduplicates explored
//! states by a 64-bit fingerprint of the *protocol-visible* system state.
//! Two requirements shape this module:
//!
//! * **Stability.** The digest must be identical across runs, processes and
//!   Rust versions — `std::hash::DefaultHasher` is explicitly unspecified,
//!   so [`Fnv64`] hand-rolls FNV-1a, whose constants are fixed forever.
//! * **Id-insensitivity.** Event ids encode the *order* in which events were
//!   posted, which differs between two schedules that reach the same
//!   protocol state. Digests therefore never include [`crate::EventId`]s;
//!   runtimes hash the pending pool as an order-insensitive multiset of
//!   `(kind, target, source, payload)` tuples instead.
//!
//! [`StateDigest`] is the hook protocol and payload types implement so the
//! substrates' digest hooks can fold their contents into the per-step
//! fingerprint.

/// A 64-bit FNV-1a hasher with a stable, documented algorithm.
///
/// Unlike [`std::hash::DefaultHasher`], the output is guaranteed identical
/// across Rust releases, platforms and processes — digests written into
/// counterexample files or JSONL records stay comparable forever.
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher in its initial (offset-basis) state.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte into the digest.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `u64` into the digest (little-endian byte order).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` into the digest (widened to `u64` first, so 32- and
    /// 64-bit platforms agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A word-at-a-time digest combiner for values that are already 64-bit
/// hashes.
///
/// [`Fnv64`] processes one *byte* per multiply, which is the right
/// granularity for hashing protocol state — arbitrary field bytes — but
/// wasteful for the model checker's per-event digest *composition*, where
/// every input is a u64 that is itself a digest (a cached per-process
/// digest, a pool sum, a shared-state hash). `Mix64` folds one *word* per
/// multiply — `state = (state ^ word) * C` with an odd constant — and
/// applies a SplitMix64-style avalanche in [`Mix64::finish`], so the final
/// fingerprint diffuses every input word across all 64 output bits.
///
/// Like [`Fnv64`], the algorithm is fixed forever: digests recorded in
/// counterexample files and benches stay comparable across builds. It is a
/// fingerprint combiner, not a byte hasher — protocol [`StateDigest`]
/// implementations keep using [`Fnv64`].
#[derive(Clone, Debug)]
pub struct Mix64 {
    state: u64,
}

/// Multiplier: an odd constant with good bit dispersion (the 64-bit
/// golden-ratio constant, as used by SplitMix64's increment).
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Mix64 {
    /// A combiner in its initial state (the FNV offset basis, so an empty
    /// `Mix64` and an empty [`Fnv64`] share a seed lineage but never an
    /// output: `finish` avalanches the state).
    pub fn new() -> Self {
        Mix64 { state: FNV_OFFSET }
    }

    /// Folds one 64-bit word into the digest.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(MIX_MUL);
    }

    /// The digest of everything mixed so far, after a SplitMix64-style
    /// finalizing avalanche (xor-shift/multiply rounds), so low-entropy
    /// word sequences still spread across the full output range.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for Mix64 {
    fn default() -> Self {
        Mix64::new()
    }
}

/// Types that can fold their value into a stable state digest.
///
/// Implemented for the primitive types protocols actually store; protocol
/// structs compose these field by field. Enum implementations must write a
/// discriminant byte before the variant's fields so that `Some(0u64)` and
/// `None` (for example) cannot collide.
pub trait StateDigest {
    /// Folds `self` into `h`.
    fn digest_into(&self, h: &mut Fnv64);

    /// Convenience: the digest of `self` alone.
    fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.digest_into(&mut h);
        h.finish()
    }
}

macro_rules! digest_ints {
    ($($ty:ty),*) => {$(
        impl StateDigest for $ty {
            fn digest_into(&self, h: &mut Fnv64) {
                // Widened (sign-extending for signed types) to a fixed 8
                // bytes so 32- and 64-bit platforms digest identically.
                h.write(&(*self as u64).to_le_bytes());
            }
        }
    )*};
}

digest_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StateDigest for bool {
    fn digest_into(&self, h: &mut Fnv64) {
        h.write_u8(u8::from(*self));
    }
}

impl StateDigest for () {
    fn digest_into(&self, _h: &mut Fnv64) {}
}

impl StateDigest for char {
    fn digest_into(&self, h: &mut Fnv64) {
        h.write_u64(u64::from(*self as u32));
    }
}

impl StateDigest for str {
    fn digest_into(&self, h: &mut Fnv64) {
        h.write_usize(self.len());
        h.write(self.as_bytes());
    }
}

impl StateDigest for String {
    fn digest_into(&self, h: &mut Fnv64) {
        self.as_str().digest_into(h);
    }
}

impl<T: StateDigest + ?Sized> StateDigest for &T {
    fn digest_into(&self, h: &mut Fnv64) {
        (**self).digest_into(h);
    }
}

impl<T: StateDigest> StateDigest for Option<T> {
    fn digest_into(&self, h: &mut Fnv64) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.digest_into(h);
            }
        }
    }
}

impl<T: StateDigest> StateDigest for [T] {
    fn digest_into(&self, h: &mut Fnv64) {
        h.write_usize(self.len());
        for v in self {
            v.digest_into(h);
        }
    }
}

impl<T: StateDigest> StateDigest for Vec<T> {
    fn digest_into(&self, h: &mut Fnv64) {
        self.as_slice().digest_into(h);
    }
}

impl<A: StateDigest, B: StateDigest> StateDigest for (A, B) {
    fn digest_into(&self, h: &mut Fnv64) {
        self.0.digest_into(h);
        self.1.digest_into(h);
    }
}

impl<A: StateDigest, B: StateDigest, C: StateDigest> StateDigest for (A, B, C) {
    fn digest_into(&self, h: &mut Fnv64) {
        self.0.digest_into(h);
        self.1.digest_into(h);
        self.2.digest_into(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn mix64_is_deterministic_order_and_value_sensitive() {
        let mix = |words: &[u64]| {
            let mut m = Mix64::new();
            for &w in words {
                m.mix(w);
            }
            m.finish()
        };
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[0]), mix(&[0, 0]));
        assert_ne!(mix(&[]), mix(&[0]));
        // The finalizer avalanches: single-bit input deltas flip roughly
        // half the output bits, never fewer than a quarter of them.
        let flipped = (mix(&[1]) ^ mix(&[3])).count_ones();
        assert!(flipped >= 16, "weak avalanche: {flipped} bits flipped");
    }

    #[test]
    fn digests_are_deterministic_and_value_sensitive() {
        assert_eq!(7u64.state_digest(), 7u64.state_digest());
        assert_ne!(7u64.state_digest(), 8u64.state_digest());
        assert_ne!(Some(0u64).state_digest(), None::<u64>.state_digest());
        assert_ne!(vec![1u64, 2].state_digest(), vec![2u64, 1].state_digest());
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let a = (vec![1u64], vec![2u64, 3]).state_digest();
        let b = (vec![1u64, 2], vec![3u64]).state_digest();
        assert_ne!(a, b);
        assert_ne!("ab".state_digest(), ("a", "b").state_digest());
    }

    #[test]
    fn composite_digests_cover_every_field() {
        let base = (1u64, false, Some('x')).state_digest();
        assert_ne!(base, (2u64, false, Some('x')).state_digest());
        assert_ne!(base, (1u64, true, Some('x')).state_digest());
        assert_ne!(base, (1u64, false, Some('y')).state_digest());
    }
}
