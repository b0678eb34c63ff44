//! Runtime match-action tables with write-back shadows (§4.3.3).
//!
//! An exact-match table is one open-addressed slot array, written in
//! place by the control plane one entry at a time, as the hashed SRAM of
//! an RMT switch is: Robin-Hood linear probing on insert, backward shift
//! on delete, so there are no tombstones and no per-mutation rebuild.
//! Each slot holds the key words, their length and the value words
//! inline; a warm lookup is one hash plus a short contiguous probe, with
//! no allocation. The array starts empty and doubles (never shrinks), and
//! only those growths re-lay it out. A table's entries live in that one
//! array, plus the write-back shadow of staged updates. Longest-prefix
//! tables keep their entries in the per-length [`LpmIndex`] instead, and
//! cache-mode tables of both kinds evict through one stamped FIFO queue.

use crate::fasthash::{FastBuildHasher, FxHasher64};
use gallium_mir::LpmIndex;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;

/// Number of key words a [`KeyBuf`] assembles inline (without heap
/// indirection). RMT-style hardware matches on fixed-width keys; four
/// 64-bit words cover every packaged middlebox (the widest key, a
/// five-tuple, packs into 5×≤32-bit fields lowered to ≤4 words).
pub const INLINE_KEY_WORDS: usize = 4;

/// Reusable key-assembly buffer for the packet hot path.
///
/// The compiled plan evaluates key expressions into this buffer before
/// probing a table. Words accumulate into a fixed inline array; keys wider
/// than [`INLINE_KEY_WORDS`] spill into a `Vec` that is retained (and its
/// capacity reused) across packets, so steady-state key assembly never
/// allocates regardless of width.
#[derive(Debug, Clone, Default)]
pub struct KeyBuf {
    len: usize,
    words: [u64; INLINE_KEY_WORDS],
    spill: Vec<u64>,
}

impl KeyBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        KeyBuf::default()
    }

    /// Reset for the next key (spill capacity is retained).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Append one key word.
    pub fn push(&mut self, word: u64) {
        if self.spill.is_empty() && self.len < INLINE_KEY_WORDS {
            self.words[self.len] = word;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                // First word past the inline capacity: migrate what we have.
                self.spill.extend_from_slice(&self.words[..self.len]);
            }
            self.spill.push(word);
        }
    }

    /// The assembled key words.
    pub fn as_slice(&self) -> &[u64] {
        if self.spill.is_empty() {
            &self.words[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Single-threaded counter the data plane bumps through `&self`.
///
/// `RtTable` lives inside one `Switch` and is never shared across
/// threads, so interior mutability via [`Cell`] suffices — an atomic RMW
/// here would put a locked instruction on every warm-path lookup for
/// nothing. Cloning snapshots the value.
#[derive(Debug, Clone, Default)]
pub struct TableCounter(Cell<u64>);

impl TableCounter {
    /// Add one.
    #[inline(always)]
    pub fn inc(&self) {
        self.0.set(self.0.get().wrapping_add(1));
    }

    /// Add `n`.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Per-table runtime counters.
///
/// Counters use [`TableCounter`] (a `Cell`) so the data-plane
/// [`RtTable::lookup`] (which takes `&self`) can bump them without locks,
/// allocation, or atomic traffic. Cloning a table snapshots the values.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Data-plane lookups that matched an entry.
    pub hits: TableCounter,
    /// Data-plane lookups that missed.
    pub misses: TableCounter,
    /// Entries displaced by cache-mode FIFO replacement (§7).
    pub evictions: TableCounter,
    /// Slot-array growths that moved resident entries (control-plane
    /// side): doublings and stride widenings.
    pub rebuilds: TableCounter,
    /// Exact-match lookups that probed the slot array (lookups the
    /// write-back shadow answered are not counted).
    pub probes: TableCounter,
}

/// Multiplier that turns a key hash into a home slot (golden-ratio
/// family; odd). [`FxHasher64`] has no finaliser, so its low bits depend
/// only on the low bits of the last key word; the home slot is taken from
/// the *high* bits of this product, which every input bit reaches.
const SLOT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fewest slots an allocated slot array holds.
const MIN_SLOTS: usize = 8;

/// Header bit set on an occupied slot; an empty slot's header is 0.
const OCCUPIED: u64 = 1 << 63;

/// Header bits holding the key length (bits 0..16); the value length sits
/// in bits 16..32 and the probe distance in bits 32..63.
const LEN_MASK: u64 = 0xFFFF;

/// Hash of a key's words. Folds the length first so `[1]` and `[1, 0]`
/// (distinct keys) never share a hash by construction.
#[inline]
fn hash_key_words(words: &[u64]) -> u64 {
    let mut h = FxHasher64::default();
    h.write_usize(words.len());
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Header of an occupied slot.
#[inline]
fn header(klen: usize, vlen: usize, dist: u64) -> u64 {
    assert!(
        klen <= LEN_MASK as usize && vlen <= LEN_MASK as usize,
        "match keys and values are at most {LEN_MASK} words"
    );
    OCCUPIED | (dist << 32) | ((vlen as u64) << 16) | klen as u64
}

/// Probe distance of an occupied slot from its home slot.
#[inline]
fn dist_of(hdr: u64) -> u64 {
    (hdr & !OCCUPIED) >> 32
}

/// Slot count that holds `n` entries at a load factor of at most 7/8.
fn slots_for(n: usize) -> usize {
    (n + n / 7 + 1).next_power_of_two().max(MIN_SLOTS)
}

/// The exact-match store: one open-addressed array of fixed-stride slots,
/// updated in place by Robin-Hood linear probing with backward-shift
/// delete.
///
/// A slot is `stride` consecutive words: a header (occupancy bit, key and
/// value lengths, probe distance), the FIFO stamp in cache mode, then
/// `key_lanes` key words and `val_lanes` value words. The lane counts are
/// the widest key and value the table has held, so keys of any width —
/// wider than [`INLINE_KEY_WORDS`] included — live in the slot itself.
/// A table starts empty, doubles when an insert would push the load past
/// 7/8, widens its stride when a wider key or value arrives, and never
/// shrinks. Only those whole-array re-layouts allocate.
#[derive(Debug, Clone, Default)]
struct SlotArray {
    /// `slot count × stride` words; empty until the first insert.
    words: Vec<u64>,
    /// `slot count - 1` (the slot count is a power of two).
    mask: usize,
    /// `64 - log2(slot count)`: the home slot is `hash × SLOT_SEED >> shift`.
    shift: u32,
    /// Words per slot.
    stride: usize,
    /// Whether slots carry a FIFO stamp word (cache mode).
    stamped: bool,
    /// Key words per slot.
    key_lanes: usize,
    /// Value words per slot.
    val_lanes: usize,
    /// Occupied slots.
    len: usize,
}

impl SlotArray {
    /// Home slot of `key`.
    #[inline]
    fn home(&self, key: &[u64]) -> usize {
        (hash_key_words(key).wrapping_mul(SLOT_SEED) >> self.shift) as usize
    }

    /// Offset of a slot's key lanes from its header.
    #[inline]
    fn key_off(&self) -> usize {
        1 + usize::from(self.stamped)
    }

    /// Word offset of the slot holding `key`.
    #[inline]
    fn find(&self, key: &[u64]) -> Option<usize> {
        if self.len == 0 || key.len() > self.key_lanes {
            return None;
        }
        let want = key.len() as u64;
        let mut i = self.home(key);
        let mut dist = 0u64;
        loop {
            let at = i * self.stride;
            let hdr = self.words[at];
            // Robin-Hood order: a run holds its keys sorted by home slot,
            // so a slot nearer its home than this probe is to ours (or an
            // empty one) ends the search.
            if hdr == 0 || dist_of(hdr) < dist {
                return None;
            }
            if hdr & LEN_MASK == want {
                let k = at + self.key_off();
                if self.words[k..k + key.len()] == *key {
                    return Some(at);
                }
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
    }

    /// Key words of the slot at `at`.
    fn key_at(&self, at: usize) -> &[u64] {
        let k = at + self.key_off();
        &self.words[k..k + (self.words[at] & LEN_MASK) as usize]
    }

    /// Value words of the slot at `at`.
    #[inline]
    fn value_at(&self, at: usize) -> &[u64] {
        let v = at + self.key_off() + self.key_lanes;
        &self.words[v..v + ((self.words[at] >> 16) & LEN_MASK) as usize]
    }

    /// FIFO stamp of the slot at `at` (cache mode).
    fn stamp_at(&self, at: usize) -> u64 {
        self.words[at + 1]
    }

    /// Word offsets of the occupied slots, in slot order.
    fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len())
            .step_by(self.stride.max(1))
            .filter(|&at| self.words[at] != 0)
    }

    /// Re-lay the array out with `nslots` slots and the given lane counts,
    /// re-inserting every entry. Returns whether resident entries moved.
    fn relayout(
        &mut self,
        nslots: usize,
        key_lanes: usize,
        val_lanes: usize,
        stamped: bool,
    ) -> bool {
        let old = std::mem::replace(
            self,
            SlotArray {
                words: Vec::new(),
                mask: nslots - 1,
                shift: 64 - nslots.trailing_zeros(),
                stride: 1 + usize::from(stamped) + key_lanes + val_lanes,
                stamped,
                key_lanes,
                val_lanes,
                len: 0,
            },
        );
        self.words = vec![0; nslots * self.stride];
        for at in old.occupied() {
            let stamp = if old.stamped { old.stamp_at(at) } else { 0 };
            self.insert_new(old.key_at(at), old.value_at(at), stamp);
        }
        old.len > 0
    }

    /// Make room for `additional` more entries without a further
    /// re-layout. Returns whether resident entries moved.
    fn reserve(&mut self, additional: usize) -> bool {
        let nslots = slots_for(self.len + additional);
        if nslots > self.mask + 1 || self.words.is_empty() {
            return self.relayout(nslots, self.key_lanes, self.val_lanes, self.stamped);
        }
        false
    }

    /// Give every slot a FIFO stamp word (cache mode); resident entries
    /// get stamp 0.
    fn set_stamped(&mut self) {
        if self.words.is_empty() {
            self.stamped = true;
        } else if !self.stamped {
            self.relayout(self.mask + 1, self.key_lanes, self.val_lanes, true);
        }
    }

    /// Insert or overwrite `key`. A new entry takes `stamp`; an
    /// overwritten one keeps its own. Returns whether resident entries
    /// moved to make room.
    fn put(&mut self, key: &[u64], value: &[u64], stamp: u64) -> bool {
        let mut at = self.find(key);
        let grow =
            self.words.is_empty() || (at.is_none() && (self.len + 1) * 8 > (self.mask + 1) * 7);
        let mut moved = false;
        if grow || key.len() > self.key_lanes || value.len() > self.val_lanes {
            let nslots = if grow {
                slots_for(self.len + 1).max(self.mask + 1)
            } else {
                self.mask + 1
            };
            let key_lanes = self.key_lanes.max(key.len());
            let val_lanes = self.val_lanes.max(value.len());
            moved = self.relayout(nslots, key_lanes, val_lanes, self.stamped);
            at = self.find(key);
        }
        match at {
            Some(at) => {
                let v = at + self.key_off() + self.key_lanes;
                self.words[v..v + value.len()].copy_from_slice(value);
                self.words[v + value.len()..v + self.val_lanes].fill(0);
                self.words[at] = header(key.len(), value.len(), dist_of(self.words[at]));
            }
            None => self.insert_new(key, value, stamp),
        }
        moved
    }

    /// Robin-Hood insert of a key known to be absent, into an array with
    /// room and wide enough lanes: the new entry takes the first slot
    /// whose occupant sits nearer its home than the probe does (or the
    /// first empty slot), and the rest of that run shifts one slot on.
    fn insert_new(&mut self, key: &[u64], value: &[u64], stamp: u64) {
        let mut i = self.home(key);
        let mut dist = 0u64;
        loop {
            let hdr = self.words[i * self.stride];
            if hdr == 0 || dist_of(hdr) < dist {
                break;
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
        // Shift [i, first empty) one slot on, last slot first.
        let mut end = i;
        while self.words[end * self.stride] != 0 {
            end = (end + 1) & self.mask;
        }
        while end != i {
            let prev = end.wrapping_sub(1) & self.mask;
            let (src, dst) = (prev * self.stride, end * self.stride);
            self.words.copy_within(src..src + self.stride, dst);
            self.words[dst] += 1 << 32;
            end = prev;
        }
        let at = i * self.stride;
        self.words[at] = header(key.len(), value.len(), dist);
        if self.stamped {
            self.words[at + 1] = stamp;
        }
        let k = at + self.key_off();
        self.words[k..k + key.len()].copy_from_slice(key);
        self.words[k + key.len()..k + self.key_lanes].fill(0);
        let v = k + self.key_lanes;
        self.words[v..v + value.len()].copy_from_slice(value);
        self.words[v + value.len()..v + self.val_lanes].fill(0);
        self.len += 1;
    }

    /// Delete `key` with backward shift: the rest of its run moves one
    /// slot back, so no tombstone is left behind.
    fn remove(&mut self, key: &[u64]) -> bool {
        let Some(at) = self.find(key) else {
            return false;
        };
        let mut i = at / self.stride;
        loop {
            let next = (i + 1) & self.mask;
            let hdr = self.words[next * self.stride];
            if hdr == 0 || dist_of(hdr) == 0 {
                break;
            }
            let (src, dst) = (next * self.stride, i * self.stride);
            self.words.copy_within(src..src + self.stride, dst);
            self.words[dst] -= 1 << 32;
            i = next;
        }
        let at = i * self.stride;
        self.words[at..at + self.stride].fill(0);
        self.len -= 1;
        true
    }
}

/// Why a table rejected a control-plane mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// An LPM operation was issued against an exact-match table.
    NotLpm,
    /// The prefix length exceeds the table's key width.
    PrefixTooLong {
        /// Requested prefix length in bits.
        len: u8,
        /// The table's key width in bits.
        key_width: u8,
    },
    /// The table is full and not in cache (evicting) mode.
    CapacityExceeded {
        /// Configured capacity in entries.
        capacity: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::NotLpm => write!(f, "LPM operation on exact-match table"),
            TableError::PrefixTooLong { len, key_width } => {
                write!(f, "prefix length {len} exceeds key width {key_width}")
            }
            TableError::CapacityExceeded { capacity } => {
                write!(f, "table full ({capacity} entries)")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// One match-action table plus its write-back shadow.
///
/// The shadow holds *staged* updates: `Some(value)` overrides the main
/// table, `None` is a tombstone that negates it. Lookups consult the shadow
/// only while the switch-global write-back bit is set — flipping that bit
/// is the single atomic operation that makes a whole batch of updates
/// visible at once.
#[derive(Debug, Clone, Default)]
pub struct RtTable {
    /// The exact-match entries (unused in LPM mode).
    slots: SlotArray,
    shadow: HashMap<Vec<u64>, Option<Vec<u64>>, FastBuildHasher>,
    capacity: usize,
    /// FIFO eviction on insert-at-capacity (cache mode, §7 extension).
    evict_fifo: bool,
    /// Cache-mode install order of exact-match keys; a record is live
    /// while its stamp is the resident slot's.
    order: FifoOrder<Vec<u64>>,
    /// Longest-prefix-match mode (§7 extension). Exact lookups are
    /// bypassed. Boxed so exact-match tables carry one null pointer.
    lpm: Option<Box<LpmTable>>,
    /// Hit/miss/eviction/rebuild/probe counters.
    pub stats: TableStats,
}

/// Cache-mode install order shared by both match kinds: `(record, stamp)`
/// per install, oldest first. The resident entry carries the stamp of its
/// live record; a record whose stamp no resident entry carries — the
/// entry was deleted, evicted or re-installed since — is stale, skipped by
/// eviction and dropped by compaction.
#[derive(Debug, Clone)]
struct FifoOrder<R> {
    records: VecDeque<(R, u64)>,
    /// Stamp of the newest record; stamps start at 1.
    last_stamp: u64,
}

impl<R> Default for FifoOrder<R> {
    fn default() -> Self {
        FifoOrder {
            records: VecDeque::new(),
            last_stamp: 0,
        }
    }
}

impl<R> FifoOrder<R> {
    /// Append a record and return its stamp.
    fn push(&mut self, record: R) -> u64 {
        self.last_stamp += 1;
        self.records.push_back((record, self.last_stamp));
        self.last_stamp
    }

    /// Drop the stale records once they outnumber the `resident` entries
    /// by more than a constant, keeping the queue within a constant factor
    /// of the table.
    fn compact(&mut self, resident: usize, is_live: impl Fn(&R, u64) -> bool) {
        if self.records.len() > 2 * resident + 16 {
            self.records.retain(|(r, s)| is_live(r, *s));
        }
    }

    /// Remove and return the oldest live record.
    fn pop_oldest(&mut self, is_live: impl Fn(&R, u64) -> bool) -> Option<R> {
        while let Some((r, s)) = self.records.pop_front() {
            if is_live(&r, s) {
                return Some(r);
            }
        }
        None
    }
}

/// An LPM table: the per-length index shared with the server's state
/// store, plus the installation order FIFO eviction walks.
#[derive(Debug, Clone)]
struct LpmTable {
    index: LpmIndex<LpmSlot>,
    /// `(canonical prefix, len)` per install.
    order: FifoOrder<(u64, u8)>,
}

/// One resident LPM entry.
#[derive(Debug, Clone)]
struct LpmSlot {
    value: Vec<u64>,
    /// Matches the entry's live record in [`LpmTable::order`].
    stamp: u64,
}

/// True when `(prefix, len)` with `stamp` is the live record of an entry
/// of `index`.
fn lpm_live(index: &LpmIndex<LpmSlot>, &(prefix, len): &(u64, u8), stamp: u64) -> bool {
    index
        .get_exact(prefix, len)
        .is_some_and(|slot| slot.stamp == stamp)
}

/// True when `key` with `stamp` is the live record of an entry of `slots`.
fn exact_live(slots: &SlotArray, key: &[u64], stamp: u64) -> bool {
    slots
        .find(key)
        .is_some_and(|at| slots.stamp_at(at) == stamp)
}

impl RtTable {
    /// Empty table that admits up to `capacity` entries. Nothing is
    /// allocated until the first insert.
    pub fn new(capacity: usize) -> Self {
        RtTable {
            capacity,
            ..RtTable::default()
        }
    }

    /// No-op: the store is updated in place, so there is nothing to
    /// flush. Kept only because the replay benchmark still calls it; it
    /// goes with the benchmark's next revision.
    pub fn flush_layout(&mut self) {}

    /// Make room for `additional` more exact-match entries (at most up to
    /// the table's capacity), so a bulk install grows the slot array at
    /// most once.
    pub fn reserve(&mut self, additional: usize) {
        let additional = additional.min(self.capacity.saturating_sub(self.slots.len));
        if self.lpm.is_none() && additional > 0 && self.slots.reserve(additional) {
            self.stats.rebuilds.inc();
        }
    }

    /// Switch the table into longest-prefix-match mode with the given key
    /// width.
    pub fn make_lpm(&mut self, key_width: u8) {
        self.lpm = Some(Box::new(LpmTable {
            index: LpmIndex::new(key_width),
            order: FifoOrder::default(),
        }));
    }

    /// Install an LPM entry (control plane).
    ///
    /// Replaces an existing entry with the same `(prefix, len)`. At
    /// capacity, cache-mode tables evict their oldest entry (FIFO, same
    /// policy as [`RtTable::insert_main`]) and report the displaced
    /// `(prefix, len)` pairs back to the caller so the control plane can
    /// track what fell out of the cache; ordinary tables reject the
    /// insert with a typed error. Prefixes longer than the key width are
    /// rejected outright — they could never match consistently. Every
    /// error is raised before the table is touched.
    ///
    /// The prefix is canonicalised (see [`LpmIndex`]), so any spelling of a
    /// resident prefix replaces it; a replaced entry moves to the back of
    /// the eviction order. Evictions report canonical prefixes.
    pub fn lpm_insert(
        &mut self,
        prefix: u64,
        len: u8,
        value: Vec<u64>,
    ) -> Result<Vec<(u64, u8)>, TableError> {
        let capacity = self.capacity;
        let evict = self.evict_fifo;
        let Some(lpm) = &mut self.lpm else {
            return Err(TableError::NotLpm);
        };
        let prefix = lpm
            .index
            .canonical(prefix, len)
            .map_err(|e| TableError::PrefixTooLong {
                len: e.len,
                key_width: e.key_width,
            })?;
        let resident = lpm.index.get_exact(prefix, len).is_some();
        let others = lpm.index.len() - usize::from(resident);
        if others >= capacity && (!evict || capacity == 0) {
            // The degenerate capacity is checked before any state is
            // touched: evicting first would destroy resident entries and
            // still fail.
            return Err(TableError::CapacityExceeded { capacity });
        }
        // A re-install moves the prefix to the back of the eviction order:
        // removing it here leaves its old order record stale.
        lpm.index.remove(prefix, len);
        let mut evicted = Vec::new();
        // Cache mode: drop the oldest installed entries until one slot
        // frees up.
        while lpm.index.len() >= capacity {
            let (p, l) = lpm
                .order
                .pop_oldest(|r, s| lpm_live(&lpm.index, r, s))
                .expect("every resident entry has a live order record");
            lpm.index.remove(p, l);
            evicted.push((p, l));
        }
        let stamp = lpm.order.push((prefix, len));
        lpm.index
            .insert(prefix, len, LpmSlot { value, stamp })
            .expect("length checked by canonical");
        lpm.order
            .compact(lpm.index.len(), |r, s| lpm_live(&lpm.index, r, s));
        self.stats.evictions.add(evicted.len() as u64);
        Ok(evicted)
    }

    /// Turn the table into a FIFO-evicting cache of `capacity` entries
    /// (the §7 "reducing memory usage" extension).
    pub fn make_cache(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_fifo = true;
        self.slots.set_stamped();
    }

    /// Is this table operating as a cache?
    pub fn is_cache(&self) -> bool {
        self.evict_fifo
    }

    /// Data-plane lookup. `wb_active` is the global visibility bit.
    ///
    /// Returns an owned copy of the value — the control-plane-friendly
    /// variant. The packet hot path uses [`RtTable::lookup_ref`] instead,
    /// which borrows the stored value and never allocates.
    pub fn lookup(&self, key: &[u64], wb_active: bool) -> Option<Vec<u64>> {
        self.lookup_ref(key, wb_active).map(<[u64]>::to_vec)
    }

    /// Data-plane lookup returning a *borrowed* value slice.
    ///
    /// Identical match semantics (LPM best-match, write-back shadow,
    /// tombstones) and identical hit/miss accounting as
    /// [`RtTable::lookup`], but without cloning the value per hit — this
    /// is what the compiled execution plan calls per packet.
    pub fn lookup_ref(&self, key: &[u64], wb_active: bool) -> Option<&[u64]> {
        let result = self.lookup_inner(key, wb_active);
        if result.is_some() {
            self.stats.hits.inc();
        } else {
            self.stats.misses.inc();
        }
        result
    }

    fn lookup_inner(&self, key: &[u64], wb_active: bool) -> Option<&[u64]> {
        if let Some(lpm) = &self.lpm {
            let k = key.first().copied().unwrap_or(0);
            return lpm.index.get(k).map(|slot| slot.value.as_slice());
        }
        // Write-back shadow first, only while the visibility bit is set;
        // then one probe of the slot array.
        if wb_active {
            if let Some(staged) = self.shadow.get(key) {
                return staged.as_deref();
            }
        }
        self.stats.probes.inc();
        self.slots.find(key).map(|at| self.slots.value_at(at))
    }

    /// Control-plane insert/overwrite into the main table, copying `key`
    /// and `value` into the entry's slot. When the table is full: caches
    /// evict their oldest entry (FIFO) and return the displaced keys so
    /// the control plane can track what fell out; ordinary tables reject
    /// the insert with a typed error. An overwrite keeps the key's FIFO
    /// position. Allocates only when the slot array grows or widens, or
    /// to report evictions.
    pub fn insert_main(&mut self, key: &[u64], value: &[u64]) -> Result<Vec<Vec<u64>>, TableError> {
        let mut evicted = Vec::new();
        let present = self.slots.find(key).is_some();
        let mut stamp = 0;
        if !present {
            if self.slots.len >= self.capacity {
                if !self.evict_fifo {
                    return Err(TableError::CapacityExceeded {
                        capacity: self.capacity,
                    });
                }
                while self.slots.len >= self.capacity {
                    let slots = &self.slots;
                    let Some(old) = self.order.pop_oldest(|k, s| exact_live(slots, k, s)) else {
                        return Err(TableError::CapacityExceeded {
                            capacity: self.capacity,
                        });
                    };
                    self.slots.remove(&old);
                    evicted.push(old);
                }
            }
            if self.evict_fifo {
                stamp = self.order.push(key.to_vec());
            }
        }
        if self.slots.put(key, value, stamp) {
            self.stats.rebuilds.inc();
        }
        if stamp != 0 {
            let slots = &self.slots;
            self.order
                .compact(slots.len, |k, s| exact_live(slots, k, s));
        }
        self.stats.evictions.add(evicted.len() as u64);
        Ok(evicted)
    }

    /// Control-plane delete from the main table.
    ///
    /// Also drops any *staged* shadow entry for the key: a delete is the
    /// control plane's newest word on it, and a staged update left behind
    /// would resurrect the key at the next write-back commit (and keep
    /// serving it while the visibility bit is set).
    pub fn delete_main(&mut self, key: &[u64]) {
        self.slots.remove(key);
        self.shadow.remove(key);
    }

    /// Stage an update (or a `None` tombstone) in the shadow.
    pub fn stage(&mut self, key: Vec<u64>, value: Option<Vec<u64>>) {
        self.shadow.insert(key, value);
    }

    /// Drain the shadow, returning the staged updates (used when folding
    /// them into the main table).
    pub fn drain_shadow(&mut self) -> Vec<(Vec<u64>, Option<Vec<u64>>)> {
        self.shadow.drain().collect()
    }

    /// Snapshot of the resident entries, sorted by key for determinism.
    /// An LPM entry reads back as key `[canonical prefix, prefix length]`.
    pub fn entries(&self) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut v: Vec<_> = match &self.lpm {
            Some(lpm) => lpm
                .index
                .iter()
                .map(|(p, l, slot)| (vec![p, u64::from(l)], slot.value.clone()))
                .collect(),
            None => self
                .slots
                .occupied()
                .map(|at| {
                    (
                        self.slots.key_at(at).to_vec(),
                        self.slots.value_at(at).to_vec(),
                    )
                })
                .collect(),
        };
        v.sort_unstable();
        v
    }

    /// Number of resident entries (exact-match or LPM).
    pub fn len(&self) -> usize {
        match &self.lpm {
            Some(lpm) => lpm.index.len(),
            None => self.slots.len,
        }
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of staged (shadow) entries.
    pub fn shadow_len(&self) -> usize {
        self.shadow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_ignores_shadow_when_bit_clear() {
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[10]).unwrap();
        t.stage(vec![1], Some(vec![99]));
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&[1], true), Some(vec![99]));
    }

    #[test]
    fn tombstone_negates_main() {
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[10]).unwrap();
        t.stage(vec![1], None);
        assert_eq!(t.lookup(&[1], true), None);
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
    }

    #[test]
    fn shadow_provides_new_entries() {
        let mut t = RtTable::new(8);
        t.stage(vec![7], Some(vec![70]));
        assert_eq!(t.lookup(&[7], true), Some(vec![70]));
        assert_eq!(t.lookup(&[7], false), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut t = RtTable::new(2);
        assert_eq!(t.insert_main(&[1], &[1]), Ok(vec![]));
        assert_eq!(t.insert_main(&[2], &[2]), Ok(vec![]));
        assert_eq!(
            t.insert_main(&[3], &[3]),
            Err(TableError::CapacityExceeded { capacity: 2 })
        );
        // Overwriting an existing key is allowed at capacity.
        assert_eq!(t.insert_main(&[2], &[22]), Ok(vec![]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats.evictions.get(), 0);
    }

    #[test]
    fn cache_evicts_fifo() {
        let mut t = RtTable::new(8);
        t.make_cache(2);
        assert_eq!(t.insert_main(&[1], &[1]), Ok(vec![]));
        assert_eq!(t.insert_main(&[2], &[2]), Ok(vec![]));
        // Evicts key 1 — the displaced key comes back to the caller.
        assert_eq!(t.insert_main(&[3], &[3]), Ok(vec![vec![1]]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats.evictions.get(), 1);
        assert_eq!(t.lookup(&[1], false), None);
        assert_eq!(t.lookup(&[2], false), Some(vec![2]));
        assert_eq!(t.lookup(&[3], false), Some(vec![3]));
        // Overwrite does not evict.
        assert_eq!(t.insert_main(&[2], &[22]), Ok(vec![]));
        assert_eq!(t.len(), 2);
        // Deleting keeps the order queue consistent.
        t.delete_main(&[2]);
        assert_eq!(t.insert_main(&[4], &[4]), Ok(vec![]));
        // Evicts 3, not the already-deleted 2.
        assert_eq!(t.insert_main(&[5], &[5]), Ok(vec![vec![3]]));
        assert_eq!(t.lookup(&[3], false), None);
        assert_eq!(t.lookup(&[4], false), Some(vec![4]));
        assert_eq!(t.stats.evictions.get(), 2);
    }

    #[test]
    fn lookup_ref_agrees_with_owned_lookup() {
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[10, 11]).unwrap();
        t.stage(vec![2], Some(vec![20]));
        t.stage(vec![1], None);
        for (key, wb) in [(1u64, false), (1, true), (2, false), (2, true), (3, false)] {
            assert_eq!(
                t.lookup_ref(&[key], wb).map(<[u64]>::to_vec),
                t.lookup(&[key], wb),
                "key {key} wb {wb}"
            );
        }
        // Both variants bump the same counters (5 keys probed twice each).
        assert_eq!(t.stats.hits.get() + t.stats.misses.get(), 10);

        let mut l = RtTable::new(8);
        l.make_lpm(32);
        l.lpm_insert(0x0a00_0000, 8, vec![8]).unwrap();
        l.lpm_insert(0x0a0b_0000, 16, vec![16]).unwrap();
        for probe in [0x0a0b_0c0du64, 0x0aff_0000, 0x0c00_0000] {
            assert_eq!(
                l.lookup_ref(&[probe], false).map(<[u64]>::to_vec),
                l.lookup(&[probe], false)
            );
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[10]).unwrap();
        assert!(t.lookup(&[1], false).is_some());
        assert!(t.lookup(&[2], false).is_none());
        assert!(t.lookup(&[1], false).is_some());
        assert_eq!(t.stats.hits.get(), 2);
        assert_eq!(t.stats.misses.get(), 1);
        // Cloning snapshots the counters independently.
        let snap = t.clone();
        t.lookup(&[1], false);
        assert_eq!(snap.stats.hits.get(), 2);
        assert_eq!(t.stats.hits.get(), 3);
    }

    #[test]
    fn lpm_insert_rejects_on_exact_match_table() {
        let mut t = RtTable::new(4);
        assert_eq!(t.lpm_insert(0, 8, vec![1]), Err(TableError::NotLpm));
    }

    #[test]
    fn lpm_insert_rejects_over_long_prefix() {
        let mut t = RtTable::new(4);
        t.make_lpm(32);
        assert_eq!(
            t.lpm_insert(0, 40, vec![1]),
            Err(TableError::PrefixTooLong {
                len: 40,
                key_width: 32
            })
        );
        // A rejected entry must not have been installed.
        assert_eq!(t.lookup(&[123], false), None);
    }

    #[test]
    fn lpm_insert_rejects_at_capacity_without_cache_mode() {
        let mut t = RtTable::new(2);
        t.make_lpm(32);
        assert_eq!(t.lpm_insert(0x0a00_0000, 8, vec![1]), Ok(vec![]));
        assert_eq!(t.lpm_insert(0x0b00_0000, 8, vec![2]), Ok(vec![]));
        assert_eq!(
            t.lpm_insert(0x0c00_0000, 8, vec![3]),
            Err(TableError::CapacityExceeded { capacity: 2 })
        );
        // Re-inserting an existing (prefix, len) overwrites in place.
        assert_eq!(t.lpm_insert(0x0b00_0000, 8, vec![22]), Ok(vec![]));
        assert_eq!(t.lookup(&[0x0b01_0203], false), Some(vec![22]));
    }

    #[test]
    fn lpm_cache_mode_evicts_oldest() {
        let mut t = RtTable::new(8);
        t.make_cache(2);
        t.make_lpm(32);
        assert_eq!(t.lpm_insert(0x0a00_0000, 8, vec![1]), Ok(vec![]));
        assert_eq!(t.lpm_insert(0x0b00_0000, 8, vec![2]), Ok(vec![]));
        // Evicts 0x0a/8 and reports it.
        assert_eq!(
            t.lpm_insert(0x0c00_0000, 8, vec![3]),
            Ok(vec![(0x0a00_0000, 8)])
        );
        assert_eq!(t.stats.evictions.get(), 1);
        assert_eq!(t.lookup(&[0x0a01_0203], false), None);
        assert_eq!(t.lookup(&[0x0b01_0203], false), Some(vec![2]));
        assert_eq!(t.lookup(&[0x0c01_0203], false), Some(vec![3]));
    }

    #[test]
    fn lpm_zero_capacity_cache_rejects() {
        let mut t = RtTable::new(0);
        t.make_cache(0);
        t.make_lpm(32);
        assert_eq!(
            t.lpm_insert(0, 8, vec![1]),
            Err(TableError::CapacityExceeded { capacity: 0 })
        );
    }

    #[test]
    fn lpm_longest_prefix_wins_and_full_width_is_exact() {
        let mut t = RtTable::new(8);
        t.make_lpm(32);
        assert_eq!(t.lpm_insert(0x0a00_0000, 8, vec![8]), Ok(vec![]));
        assert_eq!(t.lpm_insert(0x0a0b_0000, 16, vec![16]), Ok(vec![]));
        assert_eq!(t.lpm_insert(0x0a0b_0c0d, 32, vec![32]), Ok(vec![]));
        assert_eq!(t.lookup(&[0x0a0b_0c0d], false), Some(vec![32]));
        assert_eq!(t.lookup(&[0x0a0b_ffff], false), Some(vec![16]));
        assert_eq!(t.lookup(&[0x0aff_ffff], false), Some(vec![8]));
        assert_eq!(t.lookup(&[0x0bff_ffff], false), None);
    }

    #[test]
    fn cache_reinsert_does_not_duplicate_order_slot() {
        // Regression: a key's FIFO position is fixed at its *first* insert.
        // Re-inserting (overwriting) it must neither refresh nor duplicate
        // its slot in the eviction order queue.
        let mut t = RtTable::new(8);
        t.make_cache(2);
        assert_eq!(t.insert_main(&[10], &[1]), Ok(vec![]));
        assert_eq!(t.insert_main(&[20], &[2]), Ok(vec![]));
        // Overwrite the oldest key twice; its order slot must not move.
        assert_eq!(t.insert_main(&[10], &[11]), Ok(vec![]));
        assert_eq!(t.insert_main(&[10], &[12]), Ok(vec![]));
        assert_eq!(t.len(), 2);
        // Next distinct key evicts 10 (first-insert order), not 20.
        assert_eq!(t.insert_main(&[30], &[3]), Ok(vec![vec![10]]));
        // And the following one evicts exactly 20 — if the overwrite had
        // duplicated 10's slot, a stale queue entry would surface here.
        assert_eq!(t.insert_main(&[40], &[4]), Ok(vec![vec![20]]));
        assert_eq!(t.insert_main(&[50], &[5]), Ok(vec![vec![30]]));
        assert_eq!(t.lookup(&[40], false), Some(vec![4]));
        assert_eq!(t.lookup(&[50], false), Some(vec![5]));
        assert_eq!(t.stats.evictions.get(), 3);
    }

    #[test]
    fn key_buf_spills_past_inline_capacity() {
        let mut kb = KeyBuf::new();
        for w in 0..3u64 {
            kb.push(w);
        }
        assert_eq!(kb.as_slice(), &[0, 1, 2]);
        kb.clear();
        for w in 0..7u64 {
            kb.push(w);
        }
        assert_eq!(kb.as_slice(), &[0, 1, 2, 3, 4, 5, 6]);
        // Clearing after a spill returns to the inline path.
        kb.clear();
        kb.push(9);
        assert_eq!(kb.as_slice(), &[9]);
    }

    #[test]
    fn lpm_insert_canonicalizes_prefix() {
        // Regression: the prefix used to be stored raw, so two spellings
        // of the same effective prefix coexisted and the stale first
        // install kept winning lookups.
        let mut t = RtTable::new(8);
        t.make_lpm(8);
        assert_eq!(t.lpm_insert(0xFF, 4, vec![1]), Ok(vec![]));
        // Same effective prefix (0xF0/4): must replace, not coexist.
        assert_eq!(t.lpm_insert(0xF0, 4, vec![2]), Ok(vec![]));
        assert_eq!(t.lookup(&[0xFF], false), Some(vec![2]));
        assert_eq!(t.lookup(&[0xF3], false), Some(vec![2]));
        // Exactly one entry occupies capacity: a table of capacity 2 still
        // has room for one more prefix.
        let mut small = RtTable::new(2);
        small.make_lpm(8);
        small.lpm_insert(0xFF, 4, vec![1]).unwrap();
        small.lpm_insert(0xF0, 4, vec![2]).unwrap();
        assert_eq!(small.lpm_insert(0x0F, 4, vec![3]), Ok(vec![]));
        // The canonical form is what eviction accounting reports.
        let mut c = RtTable::new(8);
        c.make_cache(1);
        c.make_lpm(8);
        c.lpm_insert(0xFF, 4, vec![1]).unwrap();
        assert_eq!(c.lpm_insert(0x0F, 4, vec![2]), Ok(vec![(0xF0, 4)]));
    }

    #[test]
    fn delete_main_drops_staged_shadow_entry() {
        // Regression: a staged update surviving `delete_main` would keep
        // serving the key while the write-back bit is set and resurrect it
        // when the commit folds the shadow into main.
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[10]).unwrap();
        t.stage(vec![1], Some(vec![99]));
        t.delete_main(&[1]);
        assert_eq!(t.lookup(&[1], false), None);
        assert_eq!(t.lookup(&[1], true), None);
        assert_eq!(t.shadow_len(), 0);
        // A commit-style drain has nothing to replay for the deleted key.
        assert!(t.drain_shadow().is_empty());
        // Unrelated staged entries survive the delete.
        let mut u = RtTable::new(8);
        u.stage(vec![1], Some(vec![11]));
        u.stage(vec![2], Some(vec![22]));
        u.delete_main(&[1]);
        assert_eq!(u.lookup(&[2], true), Some(vec![22]));
        assert_eq!(u.shadow_len(), 1);
    }

    #[test]
    fn lpm_zero_capacity_cache_rejects_without_mutating() {
        // Regression: the degenerate capacity used to be checked *after*
        // the eviction drain, so a cache shrunk to zero capacity lost all
        // resident entries (and the evicted list, and the eviction stats)
        // on the next insert — which still failed.
        let mut t = RtTable::new(8);
        t.make_lpm(32);
        t.lpm_insert(0x0a00_0000, 8, vec![1]).unwrap();
        t.lpm_insert(0x0b00_0000, 8, vec![2]).unwrap();
        t.make_cache(0);
        assert_eq!(
            t.lpm_insert(0x0c00_0000, 8, vec![3]),
            Err(TableError::CapacityExceeded { capacity: 0 })
        );
        // The resident entries are untouched and nothing was "evicted".
        assert_eq!(t.lookup(&[0x0a01_0203], false), Some(vec![1]));
        assert_eq!(t.lookup(&[0x0b01_0203], false), Some(vec![2]));
        assert_eq!(t.stats.evictions.get(), 0);
    }

    #[test]
    fn drain_shadow_empties_it() {
        let mut t = RtTable::new(8);
        t.stage(vec![1], Some(vec![1]));
        t.stage(vec![2], None);
        let mut drained = t.drain_shadow();
        drained.sort();
        assert_eq!(drained.len(), 2);
        assert_eq!(t.shadow_len(), 0);
    }

    #[test]
    fn store_distinguishes_prefix_keys_and_empty_values() {
        // `[1]` vs `[1, 0]` differ only in length; an empty value is a hit
        // that must not read as a miss.
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[10]).unwrap();
        t.insert_main(&[1, 0], &[20]).unwrap();
        t.insert_main(&[], &[]).unwrap();
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&[1, 0], false), Some(vec![20]));
        assert_eq!(t.lookup(&[], false), Some(vec![]));
        assert_eq!(t.lookup(&[0, 1], false), None);
        // A shorter value overwrites a longer one exactly.
        t.insert_main(&[1, 0], &[7, 8, 9]).unwrap();
        t.insert_main(&[1, 0], &[5]).unwrap();
        assert_eq!(t.lookup(&[1, 0], false), Some(vec![5]));
    }

    #[test]
    fn store_grows_by_doubling_and_counts_only_growths() {
        let mut t = RtTable::new(1 << 16);
        assert_eq!(t.slots.words.capacity(), 0, "new tables allocate nothing");
        for i in 0..1000u64 {
            t.insert_main(&[i, !i], &[i * 10]).unwrap();
        }
        // 8 → 16 → … → 2048 slots: eight growths that moved entries (the
        // first allocation moved none).
        assert_eq!(t.slots.mask + 1, 2048);
        assert_eq!(t.stats.rebuilds.get(), 8);
        for i in 0..1000u64 {
            t.delete_main(&[i, !i]);
        }
        // Deletes never shrink, and churn within the size never re-lays out.
        assert!(t.is_empty());
        for round in 0..4u64 {
            for i in 0..1000u64 {
                t.insert_main(&[i, round], &[i]).unwrap();
            }
            for i in 0..1000u64 {
                t.delete_main(&[i, round]);
            }
        }
        assert_eq!(t.slots.mask + 1, 2048);
        assert_eq!(t.stats.rebuilds.get(), 8);
        // A reserved bulk load grows once, up front.
        let mut r = RtTable::new(1 << 16);
        r.reserve(60_000);
        for i in 0..60_000u64 {
            r.insert_main(&[i], &[i]).unwrap();
        }
        assert_eq!(r.stats.rebuilds.get(), 0);
        assert_eq!(r.len(), 60_000);
    }

    #[test]
    fn backward_shift_keeps_every_run_reachable() {
        // A tiny array forced into long runs: delete from the middle,
        // front and back of runs and check every survivor still answers.
        let mut t = RtTable::new(64);
        let keys: Vec<u64> = (0..7).collect();
        for &k in &keys {
            t.insert_main(&[k], &[k + 100]).unwrap();
        }
        assert_eq!(t.slots.mask + 1, 8, "7 of 8 slots full: every run wraps");
        let mut resident: Vec<u64> = keys.clone();
        for &k in &[3u64, 0, 6, 1] {
            t.delete_main(&[k]);
            resident.retain(|&r| r != k);
            for &r in &resident {
                assert_eq!(
                    t.lookup(&[r], false),
                    Some(vec![r + 100]),
                    "after deleting {k}"
                );
            }
            assert_eq!(t.lookup(&[k], false), None);
            // No tombstones: every occupied slot is at its home or reached
            // through occupied slots.
            for at in t.slots.occupied() {
                let i = at / t.slots.stride;
                let d = dist_of(t.slots.words[at]) as usize;
                for back in 1..=d {
                    let j = (i + t.slots.mask + 1 - back) & t.slots.mask;
                    assert_ne!(t.slots.words[j * t.slots.stride], 0);
                }
            }
        }
        assert_eq!(t.len(), resident.len());
    }

    /// Largest probe distance over the resident slots.
    fn max_dist(t: &RtTable) -> u64 {
        t.slots
            .occupied()
            .map(|at| dist_of(t.slots.words[at]))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn keys_of_real_shapes_spread_over_the_array() {
        // NAT 4-tuples whose high words are constant (one client subnet,
        // one server, ports counting up) and LB (saddr, VIP, ports, proto)
        // keys: the high bits of the multiplied hash must spread them, or
        // probe runs grow with the table.
        let mut nat = RtTable::new(1 << 17);
        nat.reserve(60_000);
        for i in 0..60_000u64 {
            nat.insert_main(
                &[0x0A00_0000 | (i >> 8), 0x0A09_0001, 1024 + i % 50_000, 80],
                &[i],
            )
            .unwrap();
        }
        let mut nat_in = RtTable::new(1 << 17);
        for i in 0..60_000u64 {
            nat_in.insert_main(&[i], &[0x0A00_0000, i]).unwrap();
        }
        let mut lb = RtTable::new(1 << 16);
        for i in 0..512u64 {
            lb.insert_main(
                &[0x0A00_0000 + i, 0x0A09_0001, (40_000 + i) << 16 | 80, 6],
                &[i],
            )
            .unwrap();
        }
        for (name, t) in [("nat_out", &nat), ("nat_in", &nat_in), ("lb", &lb)] {
            let mean = t
                .slots
                .occupied()
                .map(|at| dist_of(t.slots.words[at]))
                .sum::<u64>() as f64
                / t.len() as f64;
            assert!(mean < 2.0, "{name}: mean probe distance {mean}");
            assert!(
                max_dist(t) < 32,
                "{name}: max probe distance {}",
                max_dist(t)
            );
        }
    }

    #[test]
    fn wide_keys_and_values_widen_the_one_store() {
        let mut t = RtTable::new(16);
        t.insert_main(&[1], &[10]).unwrap();
        let wide = [1u64, 2, 3, 4, 5, 6];
        t.insert_main(&wide, &[1, 2, 3]).unwrap();
        assert_eq!(t.slots.key_lanes, 6);
        assert_eq!(t.slots.val_lanes, 3);
        assert_eq!(t.stats.rebuilds.get(), 1, "one stride widening");
        assert_eq!(t.lookup(&wide, false), Some(vec![1, 2, 3]));
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&[1, 2, 3, 4, 5, 6, 7], false), None);
        t.stage(wide.to_vec(), None);
        assert_eq!(t.lookup(&wide, true), None);
        t.delete_main(&wide);
        assert_eq!(t.lookup(&wide, false), None);
        assert_eq!(t.entries(), vec![(vec![1], vec![10])]);
    }

    #[test]
    fn cache_made_after_inserts_never_evicts_unrecorded_entries() {
        let mut t = RtTable::new(8);
        t.insert_main(&[1], &[1]).unwrap();
        t.make_cache(2);
        assert_eq!(t.insert_main(&[2], &[2]), Ok(vec![]));
        // Key 1 has no order record; key 2 is the oldest recorded entry.
        assert_eq!(t.insert_main(&[3], &[3]), Ok(vec![vec![2]]));
        assert_eq!(t.lookup(&[1], false), Some(vec![1]));
        // Re-inserting a deleted key stamps it anew: its stale record must
        // not evict it early.
        t.delete_main(&[3]);
        assert_eq!(t.insert_main(&[4], &[4]), Ok(vec![]));
        assert_eq!(t.insert_main(&[3], &[3]), Ok(vec![vec![4]]));
        assert_eq!(t.lookup(&[3], false), Some(vec![3]));
    }

    #[test]
    fn cache_order_queue_stays_bounded_under_churn() {
        let mut t = RtTable::new(8);
        t.make_cache(4);
        for i in 0..10_000u64 {
            t.insert_main(&[i % 6], &[i]).unwrap();
            t.delete_main(&[i % 6]);
        }
        assert!(t.order.records.len() <= 2 * t.len() + 17);
    }

    #[test]
    fn lpm_tables_read_back() {
        let mut t = RtTable::new(8);
        t.make_lpm(32);
        assert!(t.is_empty());
        t.lpm_insert(0x0a0b_0c0d, 8, vec![1]).unwrap();
        t.lpm_insert(0x0a0b_0000, 16, vec![2]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.entries(),
            vec![
                (vec![0x0a00_0000, 8], vec![1]),
                (vec![0x0a0b_0000, 16], vec![2])
            ]
        );
    }
}
