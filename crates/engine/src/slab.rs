//! Dense key interning and epoch-stamped accumulator slabs.
//!
//! The pane layer keys per-instance accumulators by a dense *slot id*
//! instead of the raw `u32` grouping key: a plan-wide [`KeyInterner`]
//! (one per pipeline core, hence one per shard) assigns each distinct
//! raw key a slot exactly once per batch at ingress, and every
//! downstream fold, combine, and seal indexes contiguous slabs by slot —
//! zero hash probes on the steady-state path. The interner's slot→key
//! table recovers the raw key wherever results or checkpoints need it,
//! so everything outside a core (sealed results, FWC1 snapshots, state
//! migration) stays key-addressed and parallelism-neutral.
//!
//! [`Slab`] is the per-instance store: a `Vec` indexed by slot with an
//! epoch-stamp occupancy scheme (a sparse set). Clearing a pane is O(1)
//! (bump the epoch), and a sparse pane is walked only over the slots
//! touched this epoch — 20 live keys cost 20 slots of work even when the
//! interner has seen 256k keys; a dense one is walked in slot order
//! (`walk_live`). An occupancy *bitmap* would tie both costs to interner
//! capacity instead; the epoch stamp keeps sparse instances cheap.

/// Visits the live slots of an epoch-stamped pane for both layouts'
/// seal-side walks (combine, emit): in slot order when at least half of
/// `capacity` is live, streaming through memory, else in first-touch order
/// (`touched`), costing only the live slots. Either way each live slot is
/// visited once, so only the order of a sealed instance's rows changes.
#[inline]
pub(crate) fn walk_live(
    touched: &[u32],
    capacity: usize,
    live: impl Fn(usize) -> bool,
    mut visit: impl FnMut(u32),
) {
    if 2 * touched.len() >= capacity {
        (0..capacity)
            .filter(|&s| live(s))
            .for_each(|s| visit(s as u32));
    } else {
        touched.iter().for_each(|&s| visit(s));
    }
}

/// Sentinel for an empty interner table bucket. Safe because a packed
/// entry is `key << 32 | slot` and slot counts stay below `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Minimum table capacity (power of two), sized so small key spaces
/// never probe-collide in practice.
const MIN_TABLE: usize = 16;

/// Maps raw `u32` grouping keys to dense slot ids, with the inverse
/// slot→key table.
///
/// Open addressing with linear probing over packed `key << 32 | slot`
/// entries; capacity is a power of two kept at most half full, and the
/// hash is a Fibonacci multiply — the same mixer family as
/// [`crate::fasthash`], but paid **once per distinct key per batch** at
/// ingress instead of once per key sub-run per operator per instance.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    /// Packed open-addressing table; `EMPTY` marks vacant buckets.
    table: Vec<u64>,
    /// Slot → raw key (the inverse mapping; index is the slot id).
    keys: Vec<u32>,
}

impl KeyInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        KeyInterner::default()
    }

    #[inline]
    fn bucket(key: u32, mask: usize) -> usize {
        // Fibonacci multiply on the key, folded to the table size.
        let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) & mask
    }

    /// Returns the slot for `key`, assigning the next dense slot on
    /// first sight.
    #[inline]
    pub fn intern(&mut self, key: u32) -> u32 {
        if self.table.is_empty() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut i = Self::bucket(key, mask);
        loop {
            let entry = self.table[i];
            if entry == EMPTY {
                let slot = self.keys.len() as u32;
                self.keys.push(key);
                self.table[i] = (u64::from(key) << 32) | u64::from(slot);
                if self.keys.len() * 2 > self.table.len() {
                    self.grow();
                }
                return slot;
            }
            if (entry >> 32) as u32 == key {
                return entry as u32;
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns the slot for `key` if it has been interned.
    #[inline]
    #[must_use]
    pub fn lookup(&self, key: u32) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = Self::bucket(key, mask);
        loop {
            let entry = self.table[i];
            if entry == EMPTY {
                return None;
            }
            if (entry >> 32) as u32 == key {
                return Some(entry as u32);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(MIN_TABLE);
        let mut table = vec![EMPTY; cap];
        let mask = cap - 1;
        for (slot, &key) in self.keys.iter().enumerate() {
            let mut i = Self::bucket(key, mask);
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = (u64::from(key) << 32) | slot as u64;
        }
        self.table = table;
    }

    /// Number of distinct keys interned (== the dense slot count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys have been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The slot→key table: `keys()[slot]` is the raw key of `slot`.
    #[inline]
    #[must_use]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Heap bytes held by the interner (table + slot→key table).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<u64>()
            + self.keys.capacity() * std::mem::size_of::<u32>()
    }

    /// Discards every interned key and frees the tables. Slot ids issued
    /// before a clear are invalid afterwards, so callers may only clear
    /// at points where no slab holds live slot-indexed state (see
    /// `PipelineCore` compaction in `crate::executor`).
    pub fn clear(&mut self) {
        self.table = Vec::new();
        self.keys = Vec::new();
    }
}

/// A slot-indexed accumulator slab with O(1) clear: the per-instance
/// pane representation.
///
/// Occupancy is an epoch stamp per slot plus a `touched` list of the
/// slots occupied this epoch (a sparse set). [`Slab::clear`] bumps the
/// epoch and truncates `touched`; values are lazily re-initialized the
/// next time their slot is touched. [`Slab::iter`] yields live slots in
/// first-touch order, `for_each_live` in the seal-side walk order
/// — callers that need canonical order sort by the raw key recovered
/// through the interner's slot→key table.
#[derive(Debug, Clone)]
pub struct Slab<V> {
    vals: Vec<V>,
    /// `stamp[slot] == epoch` marks `vals[slot]` live this epoch.
    stamp: Vec<u32>,
    /// Current epoch; starts at 1 so a zeroed stamp reads vacant.
    epoch: u32,
    /// Slots occupied this epoch, in first-touch order.
    touched: Vec<u32>,
}

impl<V> Default for Slab<V> {
    fn default() -> Self {
        Slab {
            vals: Vec::new(),
            stamp: Vec::new(),
            epoch: 1,
            touched: Vec::new(),
        }
    }
}

impl<V> Slab<V> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Slab::default()
    }

    /// Number of slots occupied this epoch.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no slot is occupied this epoch.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The value at `slot`, resolving occupancy — one bounds check and
    /// one stamp compare, no hashing.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: u32) -> Option<&V> {
        let i = slot as usize;
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            Some(&self.vals[i])
        } else {
            None
        }
    }

    /// Mutable access to an occupied slot.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut V> {
        let i = slot as usize;
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            Some(&mut self.vals[i])
        } else {
            None
        }
    }

    /// The value at `slot`, occupying it with `init()` on first touch
    /// this epoch — the fold path's accumulator resolve: no hash probe,
    /// and for a repeated slot just a stamp compare.
    #[inline]
    pub fn slot_mut(&mut self, slot: u32, mut init: impl FnMut() -> V) -> &mut V {
        let i = slot as usize;
        if i >= self.stamp.len() {
            self.vals.resize_with(i + 1, &mut init);
            self.stamp.resize(i + 1, 0);
        }
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.touched.push(slot);
            self.vals[i] = init();
        }
        &mut self.vals[i]
    }

    /// Writes `value` into `slot`, overwriting any live value.
    #[inline]
    pub fn insert(&mut self, slot: u32, value: V)
    where
        V: Clone,
    {
        let i = slot as usize;
        if i >= self.stamp.len() {
            // The clone fills the growth gap; the target slot itself
            // receives `value` by move below.
            self.vals.resize(i + 1, value.clone());
            self.stamp.resize(i + 1, 0);
        }
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.touched.push(slot);
        }
        self.vals[i] = value;
    }

    /// Iterates the occupied slots in first-touch order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> + '_ {
        self.touched
            .iter()
            .map(move |&s| (s, &self.vals[s as usize]))
    }

    /// Visits the occupied slots for a seal-side walk: in slot order when
    /// the slab is dense, in first-touch order when sparse ([`walk_live`]).
    #[inline]
    pub(crate) fn for_each_live(&self, mut visit: impl FnMut(u32, &V)) {
        let live = |s: usize| self.stamp[s] == self.epoch;
        walk_live(&self.touched, self.stamp.len(), live, |s| {
            visit(s, &self.vals[s as usize]);
        });
    }

    /// Clears the slab in O(1) by bumping the epoch. Values stay in
    /// place and are re-initialized lazily on next touch.
    pub fn clear(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // Epoch wrap: every stamp could collide with a future epoch,
            // so reset them all once per ~4 billion clears.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// Live-entry equality: two slabs are equal when they hold the same
/// `(slot, value)` set, regardless of touch order, capacity, or epoch.
impl<V: PartialEq> PartialEq for Slab<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(s, v)| other.get(s) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_dense_slots_in_first_seen_order() {
        let mut it = KeyInterner::new();
        assert_eq!(it.intern(42), 0);
        assert_eq!(it.intern(7), 1);
        assert_eq!(it.intern(42), 0);
        assert_eq!(it.intern(u32::MAX), 2);
        assert_eq!(it.keys(), &[42, 7, u32::MAX]);
        assert_eq!(it.lookup(7), Some(1));
        assert_eq!(it.lookup(8), None);
        assert!(it.bytes() > 0);
    }

    #[test]
    fn interner_survives_growth_and_clear() {
        let mut it = KeyInterner::new();
        for k in 0..10_000u32 {
            assert_eq!(it.intern(k * 7919), k);
        }
        for k in 0..10_000u32 {
            assert_eq!(it.lookup(k * 7919), Some(k), "key {}", k * 7919);
        }
        it.clear();
        assert!(it.is_empty());
        assert_eq!(it.intern(3), 0);
    }

    #[test]
    fn slab_touch_iterate_clear() {
        let mut slab: Slab<f64> = Slab::new();
        *slab.slot_mut(5, || 0.0) += 1.0;
        *slab.slot_mut(2, || 0.0) += 2.0;
        *slab.slot_mut(5, || 0.0) += 1.0;
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(5), Some(&2.0));
        assert_eq!(slab.get(3), None);
        let seen: Vec<(u32, f64)> = slab.iter().map(|(s, &v)| (s, v)).collect();
        assert_eq!(seen, vec![(5, 2.0), (2, 2.0)]);
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.get(5), None);
        // Reuse after clear re-initializes lazily.
        *slab.slot_mut(5, || 10.0) += 1.0;
        assert_eq!(slab.get(5), Some(&11.0));
    }

    #[test]
    fn slab_insert_overwrites_and_occupies() {
        let mut slab: Slab<Vec<f64>> = Slab::new();
        slab.insert(3, vec![1.0]);
        slab.insert(3, vec![2.0, 3.0]);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(3), Some(&vec![2.0, 3.0]));
        assert_eq!(slab.get_mut(1), None);
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let mut slab: Slab<u64> = Slab::new();
        *slab.slot_mut(0, || 0) += 1;
        slab.epoch = u32::MAX; // simulate ~4B clears
        slab.stamp[0] = u32::MAX;
        slab.touched = vec![0];
        slab.clear();
        assert_eq!(slab.epoch, 1);
        assert!(slab.get(0).is_none());
        *slab.slot_mut(0, || 7) += 1;
        assert_eq!(slab.get(0), Some(&8));
    }
}
