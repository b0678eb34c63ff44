//! Global middlebox state: declarations and the runtime store.

use crate::lpm::LpmIndex;
use crate::{MirError, Result};
use std::collections::HashMap;

/// Index of a global state declaration within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The shape of one piece of global state.
///
/// These mirror the two Click data structures the paper supports (`HashMap`,
/// `Vector`, §7) plus scalar registers (the NAT's port-allocation counter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateKind {
    /// A hash map from a multi-word key to a multi-word value.
    ///
    /// `max_entries` is the developer annotation the paper requires before a
    /// map may be placed on the switch ("Gallium requires a middlebox
    /// developer to annotate a maximum size for each HashMap that the
    /// developer wishes to offload", §4.3.1). `None` means unannotated — the
    /// map can then never be offloaded.
    Map {
        /// Bit widths of the key components.
        key_widths: Vec<u8>,
        /// Bit widths of the value components.
        value_widths: Vec<u8>,
        /// Developer-annotated maximum entry count.
        max_entries: Option<usize>,
    },
    /// A fixed-capacity vector of scalars (e.g. the backend list).
    Vector {
        /// Bit width of each element.
        elem_width: u8,
        /// Maximum number of elements.
        capacity: usize,
    },
    /// A scalar register (e.g. a counter).
    Register {
        /// Bit width of the register.
        width: u8,
    },
    /// A longest-prefix-match table (§7 extension: LPM is a native P4
    /// match kind that classic Click middleboxes never exposed). Read-only
    /// from the packet path; entries are installed at configuration time.
    LpmMap {
        /// Bit width of the key (e.g. 32 for IPv4 prefixes).
        key_width: u8,
        /// Bit widths of the value components.
        value_widths: Vec<u8>,
        /// Annotated maximum entries (required for offloading).
        max_entries: Option<usize>,
    },
}

impl StateKind {
    /// Worst-case switch-memory footprint in bits, used for Constraint 1
    /// (§4.2.2: "the total size of the global state maintained by the switch
    /// does not exceed the size of the switch memory").
    ///
    /// Returns `None` when the footprint is unbounded (unannotated map).
    pub fn memory_bits(&self) -> Option<usize> {
        match self {
            StateKind::Map {
                key_widths,
                value_widths,
                max_entries,
            } => {
                let per: usize = key_widths
                    .iter()
                    .chain(value_widths.iter())
                    .map(|w| usize::from(*w))
                    .sum();
                max_entries.map(|n| n * per)
            }
            StateKind::Vector {
                elem_width,
                capacity,
            } => Some(usize::from(*elem_width) * capacity),
            StateKind::Register { width } => Some(usize::from(*width)),
            StateKind::LpmMap {
                key_width,
                value_widths,
                max_entries,
            } => {
                let per: usize = usize::from(*key_width)
                    + 8 // prefix length
                    + value_widths.iter().map(|w| usize::from(*w)).sum::<usize>();
                max_entries.map(|n| n * per)
            }
        }
    }
}

/// A named global state declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalState {
    /// Source-level name (e.g. `map`, `backends`).
    pub name: String,
    /// Shape and annotations.
    pub kind: StateKind,
}

/// Runtime values for every global state of a program.
///
/// Both the reference interpreter (the "input middlebox") and the middlebox
/// server runtime use this store; the switch simulator keeps its own table /
/// register representation and is kept in sync by the state-synchronization
/// engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateStore {
    maps: Vec<HashMap<Vec<u64>, Vec<u64>>>,
    vectors: Vec<Vec<u64>>,
    registers: Vec<u64>,
    /// One longest-prefix-match index per LPM table.
    lpms: Vec<LpmIndex<Vec<u64>>>,
    /// Maps StateId index -> (kind tag, index into the per-kind vec).
    index: Vec<(SlotKind, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Map,
    Vector,
    Register,
    Lpm,
}

impl StateStore {
    /// Create an empty store shaped after `decls`.
    pub fn new(decls: &[GlobalState]) -> Self {
        let mut store = StateStore::default();
        for d in decls {
            match &d.kind {
                StateKind::Map { .. } => {
                    store.index.push((SlotKind::Map, store.maps.len()));
                    store.maps.push(HashMap::new());
                }
                StateKind::Vector { .. } => {
                    store.index.push((SlotKind::Vector, store.vectors.len()));
                    store.vectors.push(Vec::new());
                }
                StateKind::Register { .. } => {
                    store
                        .index
                        .push((SlotKind::Register, store.registers.len()));
                    store.registers.push(0);
                }
                StateKind::LpmMap { key_width, .. } => {
                    store.index.push((SlotKind::Lpm, store.lpms.len()));
                    store.lpms.push(LpmIndex::new(*key_width));
                }
            }
        }
        store
    }

    fn slot(&self, id: StateId, want: SlotKind) -> Result<usize> {
        match self.index.get(id.0 as usize) {
            Some((kind, idx)) if *kind == want => Ok(*idx),
            Some(_) => Err(MirError::Invalid(format!(
                "state {id} accessed with wrong kind"
            ))),
            None => Err(MirError::DanglingRef(format!("state {id}"))),
        }
    }

    /// Look up a map entry.
    pub fn map_get(&self, id: StateId, key: &[u64]) -> Result<Option<Vec<u64>>> {
        let idx = self.slot(id, SlotKind::Map)?;
        Ok(self.maps[idx].get(key).cloned())
    }

    /// Insert or overwrite a map entry.
    pub fn map_put(&mut self, id: StateId, key: Vec<u64>, value: Vec<u64>) -> Result<()> {
        let idx = self.slot(id, SlotKind::Map)?;
        self.maps[idx].insert(key, value);
        Ok(())
    }

    /// Remove a map entry (no-op when absent).
    pub fn map_del(&mut self, id: StateId, key: &[u64]) -> Result<()> {
        let idx = self.slot(id, SlotKind::Map)?;
        self.maps[idx].remove(key);
        Ok(())
    }

    /// Number of entries currently in a map.
    pub fn map_len(&self, id: StateId) -> Result<usize> {
        let idx = self.slot(id, SlotKind::Map)?;
        Ok(self.maps[idx].len())
    }

    /// Iterate over a map's entries (sorted by key, for determinism).
    pub fn map_entries(&self, id: StateId) -> Result<Vec<(Vec<u64>, Vec<u64>)>> {
        let idx = self.slot(id, SlotKind::Map)?;
        let mut v: Vec<_> = self.maps[idx]
            .iter()
            .map(|(k, val)| (k.clone(), val.clone()))
            .collect();
        v.sort();
        Ok(v)
    }

    /// A map's entries, borrowed, in no particular order.
    pub fn map_iter(&self, id: StateId) -> Result<impl Iterator<Item = (&[u64], &[u64])> + '_> {
        let idx = self.slot(id, SlotKind::Map)?;
        Ok(self.maps[idx]
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    /// Read a vector element.
    pub fn vec_get(&self, id: StateId, i: usize) -> Result<u64> {
        let idx = self.slot(id, SlotKind::Vector)?;
        self.vectors[idx]
            .get(i)
            .copied()
            .ok_or_else(|| MirError::Fault(format!("vector {id} index {i} out of range")))
    }

    /// Current length of a vector.
    pub fn vec_len(&self, id: StateId) -> Result<usize> {
        let idx = self.slot(id, SlotKind::Vector)?;
        Ok(self.vectors[idx].len())
    }

    /// Replace the full contents of a vector (configuration-time API, e.g.
    /// installing the backend list).
    pub fn vec_set_all(&mut self, id: StateId, values: Vec<u64>) -> Result<()> {
        let idx = self.slot(id, SlotKind::Vector)?;
        self.vectors[idx] = values;
        Ok(())
    }

    /// Read a register.
    pub fn reg_read(&self, id: StateId) -> Result<u64> {
        let idx = self.slot(id, SlotKind::Register)?;
        Ok(self.registers[idx])
    }

    /// Write a register.
    pub fn reg_write(&mut self, id: StateId, v: u64) -> Result<()> {
        let idx = self.slot(id, SlotKind::Register)?;
        self.registers[idx] = v;
        Ok(())
    }

    /// Longest-prefix-match lookup: the value of the longest installed
    /// prefix whose leading bits equal `key`'s (see [`LpmIndex`] for the
    /// exact semantics).
    pub fn lpm_get(&self, id: StateId, key: u64) -> Result<Option<Vec<u64>>> {
        let idx = self.slot(id, SlotKind::Lpm)?;
        Ok(self.lpms[idx].get(key).cloned())
    }

    /// Install an LPM entry (configuration-time API). The prefix is
    /// canonicalised, so any spelling of an installed prefix replaces it;
    /// a prefix longer than the table's key width is refused with
    /// [`MirError::PrefixTooLong`].
    pub fn lpm_put(&mut self, id: StateId, prefix: u64, len: u8, value: Vec<u64>) -> Result<()> {
        let idx = self.slot(id, SlotKind::Lpm)?;
        self.lpms[idx].insert(prefix, len, value)?;
        Ok(())
    }

    /// Snapshot of an LPM table's entries as `(canonical prefix, len,
    /// value)` (sorted, for determinism).
    pub fn lpm_entries(&self, id: StateId) -> Result<Vec<(u64, u8, Vec<u64>)>> {
        let idx = self.slot(id, SlotKind::Lpm)?;
        let mut v: Vec<_> = self.lpms[idx]
            .iter()
            .map(|(prefix, len, value)| (prefix, len, value.clone()))
            .collect();
        // `(prefix, len)` is unique, so it alone fixes the order.
        v.sort_unstable_by_key(|&(prefix, len, _)| (prefix, len));
        Ok(v)
    }

    /// An LPM table's entries as `(canonical prefix, len, value)`,
    /// borrowed, in no particular order.
    pub fn lpm_iter(&self, id: StateId) -> Result<impl Iterator<Item = (u64, u8, &[u64])> + '_> {
        let idx = self.slot(id, SlotKind::Lpm)?;
        Ok(self.lpms[idx]
            .iter()
            .map(|(prefix, len, value)| (prefix, len, value.as_slice())))
    }

    /// Fused fetch-and-add on a register (single stateful-ALU access).
    pub fn reg_fetch_add(&mut self, id: StateId, delta: u64) -> Result<u64> {
        let idx = self.slot(id, SlotKind::Register)?;
        let old = self.registers[idx];
        self.registers[idx] = old.wrapping_add(delta);
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decls() -> Vec<GlobalState> {
        vec![
            GlobalState {
                name: "map".into(),
                kind: StateKind::Map {
                    key_widths: vec![16],
                    value_widths: vec![32],
                    max_entries: Some(65536),
                },
            },
            GlobalState {
                name: "backends".into(),
                kind: StateKind::Vector {
                    elem_width: 32,
                    capacity: 16,
                },
            },
            GlobalState {
                name: "counter".into(),
                kind: StateKind::Register { width: 16 },
            },
        ]
    }

    #[test]
    fn map_ops() {
        let mut s = StateStore::new(&decls());
        let id = StateId(0);
        assert_eq!(s.map_get(id, &[1]).unwrap(), None);
        s.map_put(id, vec![1], vec![99]).unwrap();
        assert_eq!(s.map_get(id, &[1]).unwrap(), Some(vec![99]));
        assert_eq!(s.map_len(id).unwrap(), 1);
        s.map_del(id, &[1]).unwrap();
        assert_eq!(s.map_get(id, &[1]).unwrap(), None);
    }

    #[test]
    fn vector_ops() {
        let mut s = StateStore::new(&decls());
        let id = StateId(1);
        s.vec_set_all(id, vec![10, 20, 30]).unwrap();
        assert_eq!(s.vec_len(id).unwrap(), 3);
        assert_eq!(s.vec_get(id, 2).unwrap(), 30);
        assert!(matches!(s.vec_get(id, 3), Err(MirError::Fault(_))));
    }

    #[test]
    fn register_ops() {
        let mut s = StateStore::new(&decls());
        let id = StateId(2);
        assert_eq!(s.reg_read(id).unwrap(), 0);
        s.reg_write(id, 5).unwrap();
        assert_eq!(s.reg_fetch_add(id, 3).unwrap(), 5);
        assert_eq!(s.reg_read(id).unwrap(), 8);
    }

    #[test]
    fn wrong_kind_rejected() {
        let s = StateStore::new(&decls());
        assert!(matches!(
            s.map_get(StateId(1), &[0]),
            Err(MirError::Invalid(_))
        ));
        assert!(matches!(s.reg_read(StateId(0)), Err(MirError::Invalid(_))));
        assert!(matches!(
            s.map_get(StateId(9), &[0]),
            Err(MirError::DanglingRef(_))
        ));
    }

    #[test]
    fn memory_bits() {
        let d = decls();
        assert_eq!(d[0].kind.memory_bits(), Some(65536 * 48));
        assert_eq!(d[1].kind.memory_bits(), Some(512));
        assert_eq!(d[2].kind.memory_bits(), Some(16));
        let unannotated = StateKind::Map {
            key_widths: vec![16],
            value_widths: vec![32],
            max_entries: None,
        };
        assert_eq!(unannotated.memory_bits(), None);
    }
}
