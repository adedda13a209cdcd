//! Register naming and the shared store.

use std::collections::BTreeMap;
use std::fmt;

use kset_sim::ProcessId;

/// Name of a single-writer multi-reader register.
///
/// Every register is owned by exactly one process; the owner addresses its
/// own registers by `slot`, readers address them by `(owner, slot)`.
/// Protocols typically use slot `0` for "my input" and higher slots for
/// later rounds or simulated message sequence numbers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegisterId {
    /// The process allowed to write this register.
    pub owner: ProcessId,
    /// Owner-local index of the register.
    pub slot: usize,
}

impl RegisterId {
    /// The register `slot` owned by `owner`.
    pub fn new(owner: ProcessId, slot: usize) -> Self {
        RegisterId { owner, slot }
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r[{}.{}]", self.owner, self.slot)
    }
}

/// The shared register store.
///
/// Unwritten registers read as `None` (the conventional `⊥`). The store
/// itself never fails, matching the paper's model where only processes fail.
///
/// The written registers are one vector sorted by [`RegisterId`]: a run
/// writes a handful of registers, and `clone_from` then copies them into
/// the destination's existing buffer, which keeps the forking executor's
/// snapshots and resumes free of allocation.
#[derive(PartialEq, Eq, Debug, Default)]
pub struct Memory<V> {
    cells: Vec<(RegisterId, V)>,
}

impl<V: Clone> Clone for Memory<V> {
    fn clone(&self) -> Self {
        Memory {
            cells: self.cells.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cells.clone_from(&source.cells);
    }
}

impl<V: Clone> Memory<V> {
    /// An empty memory.
    pub fn new() -> Self {
        Memory { cells: Vec::new() }
    }

    /// Stores `value` into `reg`, overwriting any previous value.
    pub fn write(&mut self, reg: RegisterId, value: V) {
        match self.position(reg) {
            Ok(at) => self.cells[at].1 = value,
            Err(at) => self.cells.insert(at, (reg, value)),
        }
    }

    /// Current content of `reg`, or `None` if never written.
    pub fn read(&self, reg: RegisterId) -> Option<V> {
        self.position(reg).ok().map(|at| self.cells[at].1.clone())
    }

    /// Snapshot of all written registers, for post-run inspection.
    pub fn snapshot(&self) -> BTreeMap<RegisterId, V> {
        self.cells.iter().cloned().collect()
    }

    /// Iterates over all written registers in `RegisterId` order, without
    /// cloning. The deterministic order makes this usable for state
    /// digests (see `kset_sim::System::run_digested_in`).
    pub fn cells(&self) -> impl Iterator<Item = (&RegisterId, &V)> {
        self.cells.iter().map(|(reg, value)| (reg, value))
    }

    /// Iterates over the written registers owned by `owner`, in slot
    /// order. Because `RegisterId` orders by `(owner, slot)`, this is a
    /// contiguous range of the store; the symmetry-canonical digest hashes
    /// it as `owner`'s id-free shared-state component.
    pub fn cells_of(&self, owner: ProcessId) -> impl Iterator<Item = (&RegisterId, &V)> {
        let from = self.cells.partition_point(|(reg, _)| reg.owner < owner);
        let to = self.cells.partition_point(|(reg, _)| reg.owner <= owner);
        self.cells[from..to].iter().map(|(reg, value)| (reg, value))
    }

    /// `Ok(index)` of `reg`, or `Err(index)` where it would be inserted.
    fn position(&self, reg: RegisterId) -> Result<usize, usize> {
        self.cells.binary_search_by_key(&reg, |(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_registers_read_bottom() {
        let mem: Memory<u8> = Memory::new();
        assert_eq!(mem.read(RegisterId::new(0, 0)), None);
    }

    #[test]
    fn writes_overwrite_and_count() {
        let mut mem = Memory::new();
        let r = RegisterId::new(1, 2);
        mem.write(r, 5u8);
        assert_eq!(mem.read(r), Some(5));
        mem.write(r, 6);
        assert_eq!(mem.read(r), Some(6));
        // Two writes to one register store one cell.
        assert_eq!(mem.snapshot().len(), 1);
    }

    #[test]
    fn registers_are_independent() {
        let mut mem = Memory::new();
        mem.write(RegisterId::new(0, 0), 'a');
        mem.write(RegisterId::new(0, 1), 'b');
        mem.write(RegisterId::new(1, 0), 'c');
        assert_eq!(mem.read(RegisterId::new(0, 0)), Some('a'));
        assert_eq!(mem.read(RegisterId::new(0, 1)), Some('b'));
        assert_eq!(mem.read(RegisterId::new(1, 0)), Some('c'));
        assert_eq!(mem.snapshot().len(), 3);
    }

    #[test]
    fn cells_come_in_register_order_and_by_owner() {
        let mut mem = Memory::new();
        for (owner, slot) in [(2, 0), (0, 1), (1, 3), (0, 0), (1, 0), (2, 2)] {
            mem.write(RegisterId::new(owner, slot), owner * 10 + slot);
        }
        let all: Vec<_> = mem.cells().map(|(r, v)| (r.owner, r.slot, *v)).collect();
        assert_eq!(
            all,
            vec![
                (0, 0, 0),
                (0, 1, 1),
                (1, 0, 10),
                (1, 3, 13),
                (2, 0, 20),
                (2, 2, 22)
            ]
        );
        let of_1: Vec<_> = mem.cells_of(1).map(|(r, _)| r.slot).collect();
        assert_eq!(of_1, vec![0, 3]);
        assert_eq!(mem.cells_of(3).count(), 0);
    }

    #[test]
    fn clone_from_reuses_the_store() {
        let mut src = Memory::new();
        src.write(RegisterId::new(0, 0), 1u64);
        src.write(RegisterId::new(1, 0), 2);
        let mut dst = src.clone();
        dst.write(RegisterId::new(2, 0), 3);
        let buffer = dst.cells.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.cells.as_ptr(), buffer);
    }

    #[test]
    fn register_id_display_and_order() {
        assert_eq!(RegisterId::new(2, 3).to_string(), "r[2.3]");
        assert!(RegisterId::new(0, 5) < RegisterId::new(1, 0));
        assert!(RegisterId::new(1, 0) < RegisterId::new(1, 1));
    }
}
