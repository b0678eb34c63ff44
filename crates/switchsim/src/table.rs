//! Runtime match-action tables with write-back shadows (§4.3.3).
//!
//! Control-plane mutations land in an ordinary `HashMap`; the data plane
//! reads through a rebuilt [`ReadLayout`] — a flat, open-addressed
//! perfect-hash array (hash-and-displace over [`FxHasher64`]) holding the
//! inline key lanes and value offsets in one contiguous allocation, so a
//! warm exact-match probe touches exactly one slot with no bucket-chain
//! pointer chases. Mutations between rebuilds accumulate in a small delta
//! overlay; the layout is rebuilt incrementally on mutation epochs (or
//! eagerly via [`RtTable::flush_layout`], which the switch calls before
//! dataplane processing).

use crate::fasthash::{FastBuildHasher, FxHasher64};
use gallium_mir::LpmIndex;
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

/// Number of key words a [`TableKey`] stores inline (without heap
/// indirection). RMT-style hardware matches on fixed-width keys; four
/// 64-bit words cover every packaged middlebox (the widest key, a
/// five-tuple, packs into 5×≤32-bit fields lowered to ≤4 words).
pub const INLINE_KEY_WORDS: usize = 4;

/// A match key stored inline — the software analogue of a fixed-width
/// RMT match key.
///
/// Keys of up to [`INLINE_KEY_WORDS`] words (every packaged middlebox)
/// live directly in the enum with no heap allocation; wider keys take the
/// typed `Spilled` fallback. Equality and hashing are defined over
/// [`TableKey::as_slice`], and `TableKey: Borrow<[u64]>`, so a
/// `HashMap<TableKey, V>` can be probed with a plain `&[u64]` — the data
/// plane never materializes a key to look one up.
#[derive(Debug, Clone)]
pub enum TableKey {
    /// Up to [`INLINE_KEY_WORDS`] words stored in place.
    Inline {
        /// Number of meaningful words in `words`.
        len: u8,
        /// The key words; entries at index ≥ `len` are zero padding.
        words: [u64; INLINE_KEY_WORDS],
    },
    /// Typed fallback for keys wider than [`INLINE_KEY_WORDS`] words.
    Spilled(Box<[u64]>),
}

impl TableKey {
    /// The key words as a slice (only the meaningful prefix for inline
    /// keys).
    pub fn as_slice(&self) -> &[u64] {
        match self {
            TableKey::Inline { len, words } => &words[..usize::from(*len)],
            TableKey::Spilled(words) => words,
        }
    }

    /// Number of key words.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for the zero-width key.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Owned copy of the key words.
    pub fn to_vec(&self) -> Vec<u64> {
        self.as_slice().to_vec()
    }
}

impl From<&[u64]> for TableKey {
    fn from(slice: &[u64]) -> Self {
        if slice.len() <= INLINE_KEY_WORDS {
            let mut words = [0u64; INLINE_KEY_WORDS];
            words[..slice.len()].copy_from_slice(slice);
            TableKey::Inline {
                len: slice.len() as u8,
                words,
            }
        } else {
            TableKey::Spilled(slice.into())
        }
    }
}

impl From<Vec<u64>> for TableKey {
    fn from(v: Vec<u64>) -> Self {
        if v.len() <= INLINE_KEY_WORDS {
            TableKey::from(v.as_slice())
        } else {
            TableKey::Spilled(v.into_boxed_slice())
        }
    }
}

impl PartialEq for TableKey {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TableKey::Inline { len: la, words: wa }, TableKey::Inline { len: lb, words: wb }) => {
                // Branchless word-parallel compare: XOR-accumulate the
                // difference across all four lanes, masking each lane by
                // whether it is live (index < len). Lane masking — rather
                // than trusting the zero-padding invariant — keeps the
                // compare correct even for hand-built keys, and matches
                // `as_slice()` equality exactly.
                let mut acc = u64::from(la ^ lb);
                let len = usize::from(*la);
                for i in 0..INLINE_KEY_WORDS {
                    acc |= (wa[i] ^ wb[i]) & u64::from(i < len).wrapping_neg();
                }
                acc == 0
            }
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for TableKey {}

impl Hash for TableKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `<[u64] as Hash>` so `Borrow<[u64]>` probes hash
        // to the same bucket.
        self.as_slice().hash(state);
    }
}

impl Borrow<[u64]> for TableKey {
    fn borrow(&self) -> &[u64] {
        self.as_slice()
    }
}

impl PartialOrd for TableKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TableKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

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
    /// Perfect-hash read-layout rebuilds (control-plane side).
    pub rebuilds: TableCounter,
    /// Exact-match lookups served by the perfect-hash read layout.
    pub probes: TableCounter,
}

/// Multiplier for the layout's slot-index hash (golden-ratio family; odd).
const LAYOUT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slot-array doublings attempted before the layout gives up and the
/// table keeps serving lookups from the hash map.
const LAYOUT_BUILD_ATTEMPTS: usize = 4;

/// Displacement values tried per bucket before growing the slot array.
const LAYOUT_DISP_TRIES: u32 = 256;

/// Delta-overlay entries that trigger an automatic layout rebuild (the
/// effective threshold scales with table size; see
/// [`RtTable::note_mutation`]).
const LAYOUT_DELTA_MAX: usize = 16;

/// `len` sentinel marking an unoccupied layout slot (no real key has more
/// than [`INLINE_KEY_WORDS`] words here).
const LAYOUT_EMPTY: u8 = u8::MAX;

/// Hash of a key's words for the read layout. Folds the length first so
/// `[1]` and `[1, 0]` (distinct keys) never share a hash by construction.
#[inline]
fn hash_key_words(words: &[u64]) -> u64 {
    let mut h = FxHasher64::default();
    h.write_usize(words.len());
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Bucket index for the displacement table: the high hash bits (the
/// multiply-mixed ones), independent of the low bits the slot index uses.
#[inline]
fn layout_bucket_index(h: u64, mask: u64) -> usize {
    ((h >> 32) & mask) as usize
}

/// Slot index under displacement `disp`: re-mixing through a multiply
/// makes each displacement value behave like an independent hash function
/// for every key in the bucket, which is what hash-and-displace needs.
#[inline]
fn layout_slot_index(h: u64, disp: u32, mask: u64) -> usize {
    ((h.wrapping_add(u64::from(disp)).wrapping_mul(LAYOUT_SEED) >> 32) & mask) as usize
}

/// One slot of the read layout: inline key lanes (zero-padded past `len`,
/// so equality is a branchless four-lane XOR) plus the value's offset into
/// the layout's contiguous value pool.
#[derive(Debug, Clone, Copy)]
struct LayoutSlot {
    /// Key words, or [`LAYOUT_EMPTY`] for an unoccupied slot.
    len: u8,
    /// The key words; lanes at index ≥ `len` are zero.
    words: [u64; INLINE_KEY_WORDS],
    /// Start of the value words in [`ReadLayout::values`].
    val_start: u32,
    /// Number of value words.
    val_len: u32,
}

impl LayoutSlot {
    const EMPTY: LayoutSlot = LayoutSlot {
        len: LAYOUT_EMPTY,
        words: [0; INLINE_KEY_WORDS],
        val_start: 0,
        val_len: 0,
    };
}

/// Read-optimized two-level (hash-and-displace) exact-match layout.
///
/// A lookup is: hash the key words, read one displacement word, probe one
/// slot, compare the inline lanes — at most one slot touched, zero bucket
/// chains, zero allocation. Built from the main hash map by
/// [`RtTable::rebuild_layout`]; tables holding any spilled (wider than
/// [`INLINE_KEY_WORDS`]) key fall back to hash-map serving.
#[derive(Debug, Clone)]
struct ReadLayout {
    /// `slot count - 1` (slot count is a power of two; bucket count equals
    /// slot count).
    mask: u64,
    /// Per-bucket displacement values.
    disp: Box<[u32]>,
    /// The open-addressed slot array.
    slots: Box<[LayoutSlot]>,
    /// All values, concatenated; slots index into this pool.
    values: Box<[u64]>,
}

impl ReadLayout {
    /// Single-probe exact-match lookup. `None` for keys wider than the
    /// inline lanes — [`RtTable`] guarantees no such key is resident while
    /// a layout is active.
    #[inline]
    fn get(&self, key: &[u64]) -> Option<&[u64]> {
        if key.len() > INLINE_KEY_WORDS {
            return None;
        }
        let mut padded = [0u64; INLINE_KEY_WORDS];
        padded[..key.len()].copy_from_slice(key);
        let h = hash_key_words(key);
        let b = layout_bucket_index(h, self.mask);
        let s = layout_slot_index(h, self.disp[b], self.mask);
        let slot = &self.slots[s];
        // Branchless compare: the slot's lanes past `len` are zero by
        // construction and `padded` is zero past the probe's length, so
        // all four lanes can be XOR-folded unconditionally; the length
        // byte disambiguates prefix keys and empty slots (LAYOUT_EMPTY
        // never equals a real length).
        let mut acc = u64::from(slot.len ^ key.len() as u8);
        for (w, p) in slot.words.iter().zip(padded.iter()) {
            acc |= w ^ p;
        }
        if acc != 0 {
            return None;
        }
        let start = slot.val_start as usize;
        Some(&self.values[start..start + slot.val_len as usize])
    }

    /// Prefetch the slot this key would probe. Reading the displacement
    /// word and touching the slot line here is the point: by the time the
    /// real probe runs, both are warm. The crate forbids `unsafe`, so
    /// instead of a prefetch instruction this issues an early demand load
    /// of the slot's tag byte through `black_box` — the out-of-order core
    /// overlaps the line fill with whatever the caller does next exactly
    /// as a software prefetch would.
    #[inline]
    fn prefetch(&self, key: &[u64]) {
        if key.len() > INLINE_KEY_WORDS {
            return;
        }
        let h = hash_key_words(key);
        let b = layout_bucket_index(h, self.mask);
        let s = layout_slot_index(h, self.disp[b], self.mask);
        std::hint::black_box(self.slots[s].len);
    }
}

/// Build a read layout over `main`, or `None` when a spilled key or a
/// displacement failure forces hash-map serving.
fn build_layout(main: &HashMap<TableKey, Vec<u64>, FastBuildHasher>) -> Option<ReadLayout> {
    let mut entries = Vec::with_capacity(main.len());
    for (key, value) in main {
        if key.len() > INLINE_KEY_WORDS {
            return None;
        }
        entries.push((hash_key_words(key.as_slice()), key, value));
    }
    let mut nslots = (main.len().max(1) * 2).next_power_of_two().max(8);
    for _ in 0..LAYOUT_BUILD_ATTEMPTS {
        if let Some(layout) = try_build_layout(&entries, nslots) {
            return Some(layout);
        }
        nslots *= 2;
    }
    None
}

/// One hash-and-displace attempt at a fixed slot count. Buckets are
/// placed in decreasing size order (big buckets have the fewest viable
/// displacements, so they claim slots while the array is emptiest).
fn try_build_layout(entries: &[(u64, &TableKey, &Vec<u64>)], nslots: usize) -> Option<ReadLayout> {
    let mask = (nslots - 1) as u64;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nslots];
    for (i, (h, _, _)) in entries.iter().enumerate() {
        buckets[layout_bucket_index(*h, mask)].push(i as u32);
    }
    let mut order: Vec<u32> = (0..nslots as u32)
        .filter(|&b| !buckets[b as usize].is_empty())
        .collect();
    order.sort_by_key(|&b| (std::cmp::Reverse(buckets[b as usize].len()), b));
    let mut disp = vec![0u32; nslots].into_boxed_slice();
    let mut slot_entry = vec![u32::MAX; nslots];
    let mut claimed: Vec<usize> = Vec::new();
    for &b in &order {
        let members = &buckets[b as usize];
        let mut placed = false;
        'disp: for d in 0..LAYOUT_DISP_TRIES {
            claimed.clear();
            for &m in members {
                let s = layout_slot_index(entries[m as usize].0, d, mask);
                if slot_entry[s] != u32::MAX || claimed.contains(&s) {
                    continue 'disp;
                }
                claimed.push(s);
            }
            disp[b as usize] = d;
            for (&m, &s) in members.iter().zip(&claimed) {
                slot_entry[s] = m;
            }
            placed = true;
            break;
        }
        if !placed {
            return None;
        }
    }
    let mut slots = vec![LayoutSlot::EMPTY; nslots].into_boxed_slice();
    let mut values = Vec::new();
    for (s, &e) in slot_entry.iter().enumerate() {
        if e == u32::MAX {
            continue;
        }
        let (_, key, value) = entries[e as usize];
        let kslice = key.as_slice();
        let mut words = [0u64; INLINE_KEY_WORDS];
        words[..kslice.len()].copy_from_slice(kslice);
        slots[s] = LayoutSlot {
            len: kslice.len() as u8,
            words,
            val_start: values.len() as u32,
            val_len: value.len() as u32,
        };
        values.extend_from_slice(value);
    }
    Some(ReadLayout {
        mask,
        disp,
        slots,
        values: values.into_boxed_slice(),
    })
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

/// One exact-match table plus its write-back shadow.
///
/// The shadow holds *staged* updates: `Some(value)` overrides the main
/// table, `None` is a tombstone that negates it. Lookups consult the shadow
/// only while the switch-global write-back bit is set — flipping that bit
/// is the single atomic operation that makes a whole batch of updates
/// visible at once.
#[derive(Debug, Clone, Default)]
pub struct RtTable {
    main: HashMap<TableKey, Vec<u64>, FastBuildHasher>,
    shadow: HashMap<TableKey, Option<Vec<u64>>, FastBuildHasher>,
    capacity: usize,
    /// FIFO eviction on insert-at-capacity (cache mode, §7 extension).
    evict_fifo: bool,
    order: VecDeque<TableKey>,
    /// Longest-prefix-match mode (§7 extension). Exact lookups are
    /// bypassed. Boxed so exact-match tables carry one null pointer.
    lpm: Option<Box<LpmTable>>,
    /// Perfect-hash read layout serving exact-match lookups; `None` while
    /// a spilled key or displacement failure forces hash-map serving.
    /// Invariant while `Some`: `layout` overlaid with `delta` is
    /// observation-equivalent to `main`.
    layout: Option<ReadLayout>,
    /// Mutations since the last rebuild: `Some` overrides the layout,
    /// `None` tombstones a layout entry. Consulted (cheaply, behind one
    /// `is_empty` branch) before every layout probe; cleared on rebuild.
    delta: HashMap<TableKey, Option<Vec<u64>>, FastBuildHasher>,
    /// Control-plane mutation epoch: bumped once per main-table mutation.
    epoch: u64,
    /// Epoch the layout was last rebuilt at (stale ⇒ `flush_layout`
    /// re-attempts the build).
    layout_epoch: u64,
    /// Hit/miss/eviction/rebuild/probe counters.
    pub stats: TableStats,
}

/// An LPM table: the per-length index shared with the server's state
/// store, plus the installation order FIFO eviction walks.
#[derive(Debug, Clone)]
struct LpmTable {
    index: LpmIndex<LpmSlot>,
    /// `(canonical prefix, len, stamp)` per install, oldest first. A record
    /// whose stamp is not the resident entry's is stale — the prefix was
    /// re-installed (moving it to the back) or evicted since — and is
    /// skipped by eviction and dropped by compaction.
    order: VecDeque<(u64, u8, u64)>,
    /// Stamp for the next install.
    next_stamp: u64,
}

/// One resident LPM entry.
#[derive(Debug, Clone)]
struct LpmSlot {
    value: Vec<u64>,
    /// Matches the entry's live record in [`LpmTable::order`].
    stamp: u64,
}

impl LpmTable {
    /// True when `(prefix, len, stamp)` is the live order record of a
    /// resident entry.
    fn is_live(&self, prefix: u64, len: u8, stamp: u64) -> bool {
        self.index
            .get_exact(prefix, len)
            .is_some_and(|slot| slot.stamp == stamp)
    }
}

impl RtTable {
    /// Empty table sized to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RtTable {
            main: HashMap::default(),
            shadow: HashMap::default(),
            capacity,
            evict_fifo: false,
            order: VecDeque::new(),
            lpm: None,
            layout: build_layout(&HashMap::default()),
            delta: HashMap::default(),
            epoch: 0,
            layout_epoch: 0,
            stats: TableStats::default(),
        }
    }

    /// Rebuild the perfect-hash read layout from `main` and clear the
    /// delta overlay. Called automatically when the overlay grows past its
    /// threshold and from [`RtTable::flush_layout`].
    fn rebuild_layout(&mut self) {
        self.delta.clear();
        self.layout = build_layout(&self.main);
        self.layout_epoch = self.epoch;
        self.stats.rebuilds.inc();
    }

    /// Make the read layout current if any mutation is outstanding. The
    /// switch calls this before dataplane processing so steady-state
    /// lookups always take the single-probe path with an empty delta.
    pub fn flush_layout(&mut self) {
        if self.layout_epoch != self.epoch {
            self.rebuild_layout();
        }
    }

    /// True when exact-match lookups are currently served by the
    /// perfect-hash layout (as opposed to the fallback hash map).
    pub fn layout_active(&self) -> bool {
        self.layout.is_some()
    }

    /// Number of mutations buffered in the delta overlay since the last
    /// layout rebuild.
    pub fn pending_delta(&self) -> usize {
        self.delta.len()
    }

    /// The control-plane mutation epoch (bumped once per main-table
    /// mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Prefetch the layout slot `key` would probe, hiding the probe's
    /// memory latency behind unrelated work (batch software pipelining).
    /// Semantically a no-op; cheap and harmless even when the layout is
    /// stale or inactive.
    #[inline]
    pub fn prefetch(&self, key: &[u64]) {
        if let Some(layout) = &self.layout {
            layout.prefetch(key);
        }
    }

    /// Record one main-table mutation: bump the epoch and fold the change
    /// into the delta overlay (or rebuild outright — spilled keys force
    /// hash-map serving, and an oversized overlay is amortized away).
    fn note_mutation(&mut self, key: TableKey, staged: Option<Vec<u64>>) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.layout.is_none() {
            // Hash-map serving: `main` is probed directly, so there is
            // nothing to overlay. `flush_layout` re-attempts the build.
            return;
        }
        if matches!(key, TableKey::Spilled(_)) {
            // Invariant: an active layout means every resident *and*
            // overlaid key is inline. Rebuild now (which bails to map
            // serving) rather than track spilled keys in the delta.
            self.rebuild_layout();
            return;
        }
        self.delta.insert(key, staged);
        if self.delta.len() >= LAYOUT_DELTA_MAX.max(self.main.len() / 8) {
            self.rebuild_layout();
        }
    }

    /// Switch the table into longest-prefix-match mode with the given key
    /// width.
    pub fn make_lpm(&mut self, key_width: u8) {
        self.lpm = Some(Box::new(LpmTable {
            index: LpmIndex::new(key_width),
            order: VecDeque::new(),
            next_stamp: 0,
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
            let (p, l, stamp) = lpm
                .order
                .pop_front()
                .expect("every resident entry has a live order record");
            if lpm.is_live(p, l, stamp) {
                lpm.index.remove(p, l);
                evicted.push((p, l));
            }
        }
        let stamp = lpm.next_stamp;
        lpm.next_stamp += 1;
        lpm.index
            .insert(prefix, len, LpmSlot { value, stamp })
            .expect("length checked by canonical");
        lpm.order.push_back((prefix, len, stamp));
        if lpm.order.len() > 2 * lpm.index.len() + 16 {
            // Re-installs leave stale records behind; dropping them here
            // keeps the queue within a constant factor of the table.
            let live = std::mem::take(&mut lpm.order);
            lpm.order = live
                .into_iter()
                .filter(|&(p, l, s)| lpm.is_live(p, l, s))
                .collect();
        }
        self.stats.evictions.add(evicted.len() as u64);
        Ok(evicted)
    }

    /// Turn the table into a FIFO-evicting cache of `capacity` entries
    /// (the §7 "reducing memory usage" extension).
    pub fn make_cache(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_fifo = true;
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
        // Exact-match probes: keys that fit the inline lanes are rebuilt as
        // a stack-only `TableKey` so the hash maps' equality checks run the
        // word-parallel inline compare (hashing still goes through the
        // shared slice `Hash` impl, so buckets agree with `Borrow<[u64]>`
        // probes). Wider keys keep the allocation-free slice probe.
        //
        // Probe order: write-back shadow (only while the visibility bit is
        // set) → delta overlay (one `is_empty` branch when no mutation is
        // outstanding) → single perfect-hash layout probe. Tables without
        // an active layout (spilled keys, displacement failure) fall back
        // to the main hash map.
        if key.len() <= INLINE_KEY_WORDS {
            // The stack-only probe key is built lazily inside each cold
            // branch: the steady state (write-back bit clear, delta
            // folded, layout active) goes straight to the single
            // perfect-hash probe without copying the key words at all.
            if wb_active {
                if let Some(staged) = self.shadow.get(&TableKey::from(key)) {
                    return staged.as_deref();
                }
            }
            if let Some(layout) = &self.layout {
                if !self.delta.is_empty() {
                    if let Some(staged) = self.delta.get(&TableKey::from(key)) {
                        return staged.as_deref();
                    }
                }
                self.stats.probes.inc();
                return layout.get(key);
            }
            return self.main.get(&TableKey::from(key)).map(Vec::as_slice);
        }
        if wb_active {
            if let Some(staged) = self.shadow.get(key) {
                return staged.as_deref();
            }
        }
        if self.layout.is_some() {
            // An active layout guarantees every resident key is inline
            // (spilled inserts rebuild immediately), so a wide probe is a
            // definite miss.
            self.stats.probes.inc();
            return None;
        }
        self.main.get(key).map(Vec::as_slice)
    }

    /// Control-plane insert/overwrite into the main table. When the table
    /// is full: caches evict their oldest entry (FIFO) and return the
    /// displaced keys so the control plane can track what fell out;
    /// ordinary tables reject the insert with a typed error.
    pub fn insert_main(
        &mut self,
        key: Vec<u64>,
        value: Vec<u64>,
    ) -> Result<Vec<Vec<u64>>, TableError> {
        let mut evicted = Vec::new();
        // One containment probe up front: the eviction loop below only runs
        // when `key` is absent and can only displace *other* keys, so the
        // answer cannot change before the insert.
        let present = self.main.contains_key(key.as_slice());
        if !present && self.main.len() >= self.capacity {
            if !self.evict_fifo {
                return Err(TableError::CapacityExceeded {
                    capacity: self.capacity,
                });
            }
            while self.main.len() >= self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        self.main.remove(old.as_slice());
                        self.note_mutation(old.clone(), None);
                        evicted.push(old.to_vec());
                    }
                    None => {
                        return Err(TableError::CapacityExceeded {
                            capacity: self.capacity,
                        }); // capacity 0
                    }
                }
            }
        }
        let key = TableKey::from(key);
        if self.evict_fifo && !present {
            // FIFO position is fixed at *first* insert: re-inserting or
            // overwriting an existing key must not refresh (or duplicate)
            // its slot in the order queue.
            self.order.push_back(key.clone());
        }
        self.main.insert(key.clone(), value.clone());
        self.note_mutation(key, Some(value));
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
        self.main.remove(key);
        self.shadow.remove(key);
        self.note_mutation(TableKey::from(key), None);
        if self.evict_fifo {
            self.order.retain(|k| k.as_slice() != key);
        }
    }

    /// Stage an update (or a `None` tombstone) in the shadow.
    pub fn stage(&mut self, key: Vec<u64>, value: Option<Vec<u64>>) {
        self.shadow.insert(TableKey::from(key), value);
    }

    /// Drain the shadow, returning the staged updates (used when folding
    /// them into the main table).
    pub fn drain_shadow(&mut self) -> Vec<(Vec<u64>, Option<Vec<u64>>)> {
        self.shadow.drain().map(|(k, v)| (k.to_vec(), v)).collect()
    }

    /// Snapshot of the main entries (sorted by key for determinism).
    pub fn entries(&self) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut v: Vec<_> = self
            .main
            .iter()
            .map(|(k, val)| (k.to_vec(), val.clone()))
            .collect();
        v.sort();
        v
    }

    /// Number of main entries.
    pub fn len(&self) -> usize {
        self.main.len()
    }

    /// True when the main table is empty.
    pub fn is_empty(&self) -> bool {
        self.main.is_empty()
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
        t.insert_main(vec![1], vec![10]).unwrap();
        t.stage(vec![1], Some(vec![99]));
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&[1], true), Some(vec![99]));
    }

    #[test]
    fn tombstone_negates_main() {
        let mut t = RtTable::new(8);
        t.insert_main(vec![1], vec![10]).unwrap();
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
        assert_eq!(t.insert_main(vec![1], vec![1]), Ok(vec![]));
        assert_eq!(t.insert_main(vec![2], vec![2]), Ok(vec![]));
        assert_eq!(
            t.insert_main(vec![3], vec![3]),
            Err(TableError::CapacityExceeded { capacity: 2 })
        );
        // Overwriting an existing key is allowed at capacity.
        assert_eq!(t.insert_main(vec![2], vec![22]), Ok(vec![]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats.evictions.get(), 0);
    }

    #[test]
    fn cache_evicts_fifo() {
        let mut t = RtTable::new(8);
        t.make_cache(2);
        assert_eq!(t.insert_main(vec![1], vec![1]), Ok(vec![]));
        assert_eq!(t.insert_main(vec![2], vec![2]), Ok(vec![]));
        // Evicts key 1 — the displaced key comes back to the caller.
        assert_eq!(t.insert_main(vec![3], vec![3]), Ok(vec![vec![1]]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats.evictions.get(), 1);
        assert_eq!(t.lookup(&[1], false), None);
        assert_eq!(t.lookup(&[2], false), Some(vec![2]));
        assert_eq!(t.lookup(&[3], false), Some(vec![3]));
        // Overwrite does not evict.
        assert_eq!(t.insert_main(vec![2], vec![22]), Ok(vec![]));
        assert_eq!(t.len(), 2);
        // Deleting keeps the order queue consistent.
        t.delete_main(&[2]);
        assert_eq!(t.insert_main(vec![4], vec![4]), Ok(vec![]));
        // Evicts 3, not the already-deleted 2.
        assert_eq!(t.insert_main(vec![5], vec![5]), Ok(vec![vec![3]]));
        assert_eq!(t.lookup(&[3], false), None);
        assert_eq!(t.lookup(&[4], false), Some(vec![4]));
        assert_eq!(t.stats.evictions.get(), 2);
    }

    #[test]
    fn lookup_ref_agrees_with_owned_lookup() {
        let mut t = RtTable::new(8);
        t.insert_main(vec![1], vec![10, 11]).unwrap();
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
        t.insert_main(vec![1], vec![10]).unwrap();
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
        assert_eq!(t.insert_main(vec![10], vec![1]), Ok(vec![]));
        assert_eq!(t.insert_main(vec![20], vec![2]), Ok(vec![]));
        // Overwrite the oldest key twice; its order slot must not move.
        assert_eq!(t.insert_main(vec![10], vec![11]), Ok(vec![]));
        assert_eq!(t.insert_main(vec![10], vec![12]), Ok(vec![]));
        assert_eq!(t.len(), 2);
        // Next distinct key evicts 10 (first-insert order), not 20.
        assert_eq!(t.insert_main(vec![30], vec![3]), Ok(vec![vec![10]]));
        // And the following one evicts exactly 20 — if the overwrite had
        // duplicated 10's slot, a stale queue entry would surface here.
        assert_eq!(t.insert_main(vec![40], vec![4]), Ok(vec![vec![20]]));
        assert_eq!(t.insert_main(vec![50], vec![5]), Ok(vec![vec![30]]));
        assert_eq!(t.lookup(&[40], false), Some(vec![4]));
        assert_eq!(t.lookup(&[50], false), Some(vec![5]));
        assert_eq!(t.stats.evictions.get(), 3);
    }

    #[test]
    fn table_key_inline_and_spilled_agree_with_slices() {
        use std::collections::hash_map::DefaultHasher;

        let narrow = TableKey::from(vec![1, 2, 3]);
        assert!(matches!(narrow, TableKey::Inline { len: 3, .. }));
        let wide = TableKey::from(vec![1, 2, 3, 4, 5, 6]);
        assert!(matches!(wide, TableKey::Spilled(_)));
        assert_eq!(narrow.as_slice(), &[1, 2, 3]);
        assert_eq!(wide.as_slice(), &[1, 2, 3, 4, 5, 6]);
        assert!(!narrow.is_empty());
        assert_eq!(TableKey::from(vec![]).len(), 0);

        // Hash must agree with `<[u64] as Hash>` (the Borrow contract).
        for key in [narrow, wide] {
            let mut a = DefaultHasher::new();
            key.hash(&mut a);
            let mut b = DefaultHasher::new();
            key.as_slice().hash(&mut b);
            assert_eq!(a.finish(), b.finish());
        }

        // Padding words beyond `len` never leak into equality.
        let k2 = TableKey::from(vec![1, 2]);
        let k3 = TableKey::from(vec![1, 2, 0]);
        assert_ne!(k2, k3);
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
    fn wide_keys_round_trip_through_table() {
        // Keys wider than INLINE_KEY_WORDS take the Spilled fallback but
        // behave identically.
        let mut t = RtTable::new(4);
        let k = vec![1u64, 2, 3, 4, 5, 6];
        t.insert_main(k.clone(), vec![42]).unwrap();
        assert_eq!(t.lookup(&k, false), Some(vec![42]));
        assert_eq!(t.entries(), vec![(k.clone(), vec![42])]);
        t.stage(k.clone(), None);
        assert_eq!(t.lookup(&k, true), None);
        t.delete_main(&k);
        assert!(t.is_empty());
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
        t.insert_main(vec![1], vec![10]).unwrap();
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
    fn layout_serves_lookups_and_rebuilds_on_mutation() {
        let mut t = RtTable::new(1 << 12);
        assert!(t.layout_active());
        for i in 0..200u64 {
            t.insert_main(vec![i, i + 1], vec![i * 10]).unwrap();
        }
        t.flush_layout();
        assert_eq!(t.pending_delta(), 0);
        let probes_before = t.stats.probes.get();
        for i in 0..200u64 {
            assert_eq!(t.lookup(&[i, i + 1], false), Some(vec![i * 10]));
        }
        assert_eq!(t.lookup(&[999, 999], false), None);
        assert_eq!(t.stats.probes.get() - probes_before, 201);
        assert!(t.stats.rebuilds.get() > 0);

        // Mutations are visible immediately through the delta overlay…
        t.insert_main(vec![7, 8], vec![777]).unwrap();
        t.delete_main(&[3, 4]);
        assert!(t.pending_delta() > 0);
        assert_eq!(t.lookup(&[7, 8], false), Some(vec![777]));
        assert_eq!(t.lookup(&[3, 4], false), None);
        // …and survive the flush-time rebuild bit-identically.
        t.flush_layout();
        assert_eq!(t.pending_delta(), 0);
        assert_eq!(t.lookup(&[7, 8], false), Some(vec![777]));
        assert_eq!(t.lookup(&[3, 4], false), None);
        assert_eq!(t.lookup(&[5, 6], false), Some(vec![50]));
        // `flush_layout` with no outstanding mutation is a no-op.
        let rebuilds = t.stats.rebuilds.get();
        t.flush_layout();
        assert_eq!(t.stats.rebuilds.get(), rebuilds);
    }

    #[test]
    fn spilled_keys_fall_back_to_map_serving() {
        let mut t = RtTable::new(16);
        t.insert_main(vec![1], vec![10]).unwrap();
        assert!(t.layout_active());
        let wide = vec![1u64, 2, 3, 4, 5, 6];
        t.insert_main(wide.clone(), vec![42]).unwrap();
        assert!(!t.layout_active());
        assert_eq!(t.lookup(&wide, false), Some(vec![42]));
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        t.flush_layout();
        assert!(!t.layout_active());
        // Deleting the spilled key lets the next flush restore the layout.
        t.delete_main(&wide);
        t.flush_layout();
        assert!(t.layout_active());
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&wide, false), None);
    }

    #[test]
    fn layout_respects_shadow_and_tombstones() {
        let mut t = RtTable::new(8);
        t.insert_main(vec![1], vec![10]).unwrap();
        t.flush_layout();
        t.stage(vec![1], None);
        t.stage(vec![2], Some(vec![20]));
        assert_eq!(t.lookup(&[1], true), None);
        assert_eq!(t.lookup(&[2], true), Some(vec![20]));
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&[2], false), None);
    }

    #[test]
    fn layout_distinguishes_prefix_keys_and_empty_values() {
        // `[1]` vs `[1, 0]` differ only in length; an empty value is a hit
        // that must not read as a miss.
        let mut t = RtTable::new(8);
        t.insert_main(vec![1], vec![10]).unwrap();
        t.insert_main(vec![1, 0], vec![20]).unwrap();
        t.insert_main(vec![], vec![]).unwrap();
        t.flush_layout();
        assert!(t.layout_active());
        assert_eq!(t.lookup(&[1], false), Some(vec![10]));
        assert_eq!(t.lookup(&[1, 0], false), Some(vec![20]));
        assert_eq!(t.lookup(&[], false), Some(vec![]));
        assert_eq!(t.lookup(&[0, 1], false), None);
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
}
