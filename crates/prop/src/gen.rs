//! Value generators over the choice tape.
//!
//! Every generator maps raw choice `0` to its simplest value (range
//! minimum, `false`, `None`, empty/shortest collection), which is the
//! contract the tape shrinker relies on: driving raw choices toward
//! zero drives generated values toward simple.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::source::Source;

/// A deterministic value generator: same tape in, same value out.
pub trait Gen {
    /// The type of generated values.
    type Value;

    /// Produce one value, consuming choices from `src`.
    fn generate(&self, src: &mut Source) -> Self::Value;
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;

    fn generate(&self, src: &mut Source) -> Self::Value {
        (**self).generate(src)
    }
}

/// Combinators available on every generator.
pub trait GenExt: Gen + Sized {
    /// A generator applying `f` to each generated value — the composed
    /// value shrinks exactly as the underlying tuple of parts does.
    fn map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }
}

impl<G: Gen> GenExt for G {}

/// See [`GenExt::map`].
#[derive(Debug, Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, U, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;

    fn generate(&self, src: &mut Source) -> U {
        (self.f)(self.inner.generate(src))
    }
}

/// Integer types that can be drawn uniformly from a half-open range.
pub trait TapeInt: Copy + PartialOrd + std::fmt::Debug {
    /// Map a raw choice into `lo..hi` (requires `lo < hi`); raw `0`
    /// must map to `lo`.
    fn from_raw(raw: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_tape_int {
    ($($t:ty),*) => {$(
        impl TapeInt for $t {
            fn from_raw(raw: u64, lo: Self, hi: Self) -> Self {
                let span = (hi as u64) - (lo as u64);
                lo + (raw % span) as $t
            }
        }
    )*};
}

impl_tape_int!(u8, u16, u32, u64, usize);

/// See [`in_range`].
#[derive(Debug, Clone)]
pub struct RangeGen<T> {
    lo: T,
    hi: T,
}

/// Uniform integers in `lo..hi` (half-open, like proptest's `lo..hi`).
///
/// Panics at construction if the range is empty. Shrinks toward `lo`.
pub fn in_range<T: TapeInt>(r: Range<T>) -> RangeGen<T> {
    assert!(
        r.start < r.end,
        "in_range: empty range {:?}..{:?}",
        r.start,
        r.end
    );
    RangeGen {
        lo: r.start,
        hi: r.end,
    }
}

impl<T: TapeInt> Gen for RangeGen<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        T::from_raw(src.next_raw(), self.lo, self.hi)
    }
}

/// See [`bools`].
#[derive(Debug, Clone)]
pub struct BoolGen;

/// Uniform booleans; shrinks toward `false`.
pub fn bools() -> BoolGen {
    BoolGen
}

impl Gen for BoolGen {
    type Value = bool;

    fn generate(&self, src: &mut Source) -> bool {
        src.next_raw() & 1 == 1
    }
}

/// See [`unit_f64`].
#[derive(Debug, Clone)]
pub struct UnitF64;

/// Uniform `f64` in `[0, 1)`; shrinks toward `0.0`.
pub fn unit_f64() -> UnitF64 {
    UnitF64
}

impl Gen for UnitF64 {
    type Value = f64;

    fn generate(&self, src: &mut Source) -> f64 {
        // 53 high-entropy bits, the exact precision of an f64 mantissa.
        (src.next_raw() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// See [`choice`].
#[derive(Debug, Clone)]
pub struct Choice<T> {
    items: Vec<T>,
}

/// One of the given items, uniformly; shrinks toward the first.
///
/// Panics at construction if `items` is empty.
pub fn choice<T: Clone>(items: Vec<T>) -> Choice<T> {
    assert!(!items.is_empty(), "choice: no items to choose from");
    Choice { items }
}

impl<T: Clone> Gen for Choice<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        self.items[(src.next_raw() % self.items.len() as u64) as usize].clone()
    }
}

/// See [`option_of`].
#[derive(Debug, Clone)]
pub struct OptionGen<G> {
    inner: G,
}

/// `None` one time in four, `Some(inner)` otherwise; shrinks toward
/// `None` (raw choice `0` selects it).
pub fn option_of<G: Gen>(inner: G) -> OptionGen<G> {
    OptionGen { inner }
}

impl<G: Gen> Gen for OptionGen<G> {
    type Value = Option<G::Value>;

    fn generate(&self, src: &mut Source) -> Option<G::Value> {
        if src.next_raw() % 4 == 0 {
            None
        } else {
            Some(self.inner.generate(src))
        }
    }
}

/// See [`vec_in`] / [`vec_exact`].
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    len: Range<usize>,
}

/// A `Vec` whose length is drawn from `len` (half-open); shrinks toward
/// the minimum length and element-wise toward each element's simplest
/// value.
pub fn vec_in<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "vec_in: empty length range");
    VecGen { elem, len }
}

/// A `Vec` of exactly `len` elements (no length choice on the tape).
pub fn vec_exact<G: Gen>(elem: G, len: usize) -> VecGen<G> {
    VecGen {
        elem,
        len: len..len + 1,
    }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, src: &mut Source) -> Vec<G::Value> {
        let len = if self.len.start + 1 == self.len.end {
            self.len.start
        } else {
            usize::from_raw(src.next_raw(), self.len.start, self.len.end)
        };
        (0..len).map(|_| self.elem.generate(src)).collect()
    }
}

/// See [`btree_map_in`].
#[derive(Debug, Clone)]
pub struct BTreeMapGen<K, V> {
    key: K,
    val: V,
    len: Range<usize>,
}

/// A `BTreeMap` built from up to `len` drawn key/value pairs (duplicate
/// keys collapse, so the map may come out smaller than the drawn
/// length); shrinks toward empty.
pub fn btree_map_in<K: Gen, V: Gen>(key: K, val: V, len: Range<usize>) -> BTreeMapGen<K, V>
where
    K::Value: Ord,
{
    assert!(len.start < len.end, "btree_map_in: empty length range");
    BTreeMapGen { key, val, len }
}

impl<K: Gen, V: Gen> Gen for BTreeMapGen<K, V>
where
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, src: &mut Source) -> BTreeMap<K::Value, V::Value> {
        let len = usize::from_raw(src.next_raw(), self.len.start, self.len.end);
        (0..len)
            .map(|_| (self.key.generate(src), self.val.generate(src)))
            .collect()
    }
}

macro_rules! impl_tuple_gen {
    ($($g:ident . $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, src: &mut Source) -> Self::Value {
                // Left-to-right, matching declaration order, so a tape
                // prefix always corresponds to a prefix of the fields.
                ($(self.$idx.generate(src),)+)
            }
        }
    };
}

impl_tuple_gen!(A.0, B.1);
impl_tuple_gen!(A.0, B.1, C.2);
impl_tuple_gen!(A.0, B.1, C.2, D.3);
impl_tuple_gen!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_gen!(A.0, B.1, C.2, D.3, E.4, F.5);

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_with<G: Gen>(g: &G, tape: Vec<u64>) -> G::Value {
        g.generate(&mut Source::replay(tape))
    }

    #[test]
    fn zero_tape_yields_simplest_values() {
        assert_eq!(gen_with(&in_range(3usize..9), vec![]), 3);
        assert!(!gen_with(&bools(), vec![]));
        assert_eq!(gen_with(&unit_f64(), vec![]), 0.0);
        assert_eq!(gen_with(&choice(vec!['a', 'b']), vec![]), 'a');
        assert_eq!(gen_with(&option_of(in_range(0u8..4)), vec![]), None);
        assert_eq!(
            gen_with(&vec_in(in_range(0u64..5), 2..7), vec![]),
            vec![0, 0]
        );
        assert!(gen_with(&btree_map_in(in_range(0u8..4), bools(), 0..5), vec![]).is_empty());
    }

    #[test]
    fn values_land_in_their_ranges() {
        let g = (in_range(2usize..10), in_range(0u64..8), unit_f64());
        let mut src = Source::record(99);
        for _ in 0..200 {
            let (n, v, f) = g.generate(&mut src);
            assert!((2..10).contains(&n));
            assert!(v < 8);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_exact_consumes_no_length_choice() {
        let v = gen_with(&vec_exact(in_range(0u64..100), 3), vec![7, 8, 9]);
        assert_eq!(v, vec![7, 8, 9]);
    }

    #[test]
    fn map_composes_over_the_same_tape() {
        let g = (in_range(0u64..10), in_range(0u64..10)).map(|(a, b)| a + b);
        assert_eq!(gen_with(&g, vec![3, 4]), 7);
    }

    #[test]
    fn btree_map_collapses_duplicate_keys() {
        let g = btree_map_in(in_range(0u8..2), in_range(0u64..9), 4..5);
        let m = gen_with(&g, vec![0, 1, 5, 1, 6, 0, 7, 1, 8]);
        assert_eq!(m.len(), 2); // keys 1 and 0, later values win
        assert_eq!(m[&1], 8);
    }
}
