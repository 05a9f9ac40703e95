//! Generic set-associative tag array with LRU replacement.
//!
//! Used for both the L1 caches (payload: coherence state + GLSC
//! reservation) and the L2 banks (payload: directory state). Only tags are
//! stored — data lives in [`crate::Backing`].

/// Largest supported associativity: the snapshot encoding stores a set's
/// occupancy and each slot's LRU rank in one byte.
pub const MAX_ASSOC: usize = u8::MAX as usize;

/// A set-associative array of cache tags with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct TagArray<P> {
    sets: Vec<Vec<Slot<P>>>,
    assoc: usize,
    line_bytes: u64,
    stamp: u64,
    /// Indices of sets that went empty → non-empty since the last
    /// [`clear`](TagArray::clear), so `clear` walks only the sets a run
    /// actually used (a short run on a big array touches a handful of
    /// its tens of thousands of sets — the fleet engine resets machines
    /// between jobs on exactly that path). May hold duplicates; bounded
    /// by `dirty_all`.
    touched: Vec<u32>,
    /// Set when the touch log would outgrow the set count; `clear` then
    /// walks every set, as before the log existed.
    dirty_all: bool,
}

#[derive(Clone, Debug)]
struct Slot<P> {
    line: u64,
    lru: u64,
    payload: P,
}

impl<P> TagArray<P> {
    /// Creates a tag array with `sets` sets of `assoc` ways for lines of
    /// `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, `assoc` exceeds [`MAX_ASSOC`], or
    /// `line_bytes` is not a power of two.
    pub fn new(sets: usize, assoc: usize, line_bytes: u64) -> Self {
        assert!(sets > 0 && assoc > 0, "cache geometry must be non-zero");
        assert!(assoc <= MAX_ASSOC, "associativity above {MAX_ASSOC}");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            sets: (0..sets).map(|_| Vec::with_capacity(assoc)).collect(),
            assoc,
            line_bytes,
            stamp: 0,
            touched: Vec::new(),
            dirty_all: false,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set index for a line address.
    #[inline]
    pub fn set_index(&self, line: u64) -> usize {
        ((line / self.line_bytes) % self.sets.len() as u64) as usize
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: u64) -> Option<&P> {
        let set = &self.sets[self.set_index(line)];
        set.iter().find(|s| s.line == line).map(|s| &s.payload)
    }

    /// Looks up a line, marking it most-recently-used on hit.
    pub fn lookup_mut(&mut self, line: u64) -> Option<&mut P> {
        let stamp = self.bump();
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        for s in set.iter_mut() {
            if s.line == line {
                s.lru = stamp;
                return Some(&mut s.payload);
            }
        }
        None
    }

    /// Mutable access without an LRU touch (e.g. for snoops/invalidation
    /// side effects that should not perturb replacement).
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut P> {
        let idx = self.set_index(line);
        self.sets[idx]
            .iter_mut()
            .find(|s| s.line == line)
            .map(|s| &mut s.payload)
    }

    /// Inserts a line (which must not already be present), evicting the LRU
    /// way if the set is full. Returns the evicted `(line, payload)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present.
    pub fn insert(&mut self, line: u64, payload: P) -> Option<(u64, P)> {
        debug_assert!(self.peek(line).is_none(), "line {line:#x} already present");
        let stamp = self.bump();
        let assoc = self.assoc;
        let idx = self.set_index(line);
        if self.sets[idx].is_empty() {
            // Sets decoded from a snapshot start unallocated; size them
            // once, on first use, like `new` does up front.
            self.sets[idx].reserve_exact(assoc);
            if !self.dirty_all {
                if self.touched.len() >= self.sets.len() {
                    self.dirty_all = true;
                    self.touched = Vec::new();
                } else {
                    self.touched.push(idx as u32);
                }
            }
        }
        let set = &mut self.sets[idx];
        let evicted = if set.len() >= assoc {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.lru)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let v = set.swap_remove(victim);
            Some((v.line, v.payload))
        } else {
            None
        };
        set.push(Slot {
            line,
            lru: stamp,
            payload,
        });
        evicted
    }

    /// Removes a line, returning its payload.
    pub fn invalidate(&mut self, line: u64) -> Option<P> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.iter()
            .position(|s| s.line == line)
            .map(|i| set.swap_remove(i).payload)
    }

    /// Iterates over all resident `(line, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.sets.iter().flatten().map(|s| (s.line, &s.payload))
    }

    /// Iterates mutably over all resident `(line, payload)` pairs (no LRU
    /// side effects).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut P)> {
        self.sets
            .iter_mut()
            .flatten()
            .map(|s| (s.line, &mut s.payload))
    }

    /// Drops every resident line and rewinds the LRU stamp to its
    /// just-constructed value, keeping the per-set allocations for reuse.
    /// After this the array is indistinguishable from a fresh `new`.
    pub fn clear(&mut self) {
        if self.dirty_all {
            for set in &mut self.sets {
                set.clear();
            }
        } else {
            for &i in &self.touched {
                self.sets[i as usize].clear();
            }
        }
        self.touched.clear();
        self.dirty_all = false;
        self.stamp = 0;
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---- durable-snapshot serialization --------------------------------------

impl<P: Clone> TagArray<P> {
    /// Makes this array an exact copy of `src` — lines, slot order, LRU
    /// stamps and touch log — reusing this array's per-set allocations:
    /// clear (which walks only the sets this array touched), then copy
    /// only the sets `src` touched. Restoring a checkpoint into a pooled
    /// machine therefore costs the live state, not the geometry. `src`
    /// must have this array's geometry (its system's config is equal).
    pub(crate) fn restore_from(&mut self, src: &Self) {
        debug_assert_eq!(
            (self.sets.len(), self.assoc, self.line_bytes),
            (src.sets.len(), src.assoc, src.line_bytes),
            "restore_from across geometries"
        );
        self.clear();
        if src.dirty_all {
            for (dst, set) in self.sets.iter_mut().zip(&src.sets) {
                if !set.is_empty() {
                    dst.clone_from(set);
                }
            }
        } else {
            for &i in &src.touched {
                self.sets[i as usize].clone_from(&src.sets[i as usize]);
            }
        }
        self.touched.clone_from(&src.touched);
        self.dirty_all = src.dirty_all;
        self.stamp = src.stamp;
    }
}

impl<P> TagArray<P> {
    /// Indices of the non-empty sets, ascending: from the touch log when
    /// it is intact (a superset, possibly with duplicates), else by a scan.
    fn live_sets(&self) -> Vec<u32> {
        let mut live: Vec<u32> = if self.dirty_all {
            (0..self.sets.len() as u32).collect()
        } else {
            let mut t = self.touched.clone();
            t.sort_unstable();
            t.dedup();
            t
        };
        live.retain(|&i| !self.sets[i as usize].is_empty());
        live
    }
}

// Sparse encoding: geometry and the LRU `stamp`, then only the
// non-empty sets as (set index, occupancy, slots in order). Replacement
// compares recency only within a set, so each slot carries its LRU
// *rank* in the set (0 = least recent) instead of its absolute stamp;
// decode rebuilds the slot's stamp as that rank, below every stamp the
// array hands out later. With slot order exact, a round-tripped array
// ages and evicts identically. Occupancy and rank take one byte each
// (`assoc <= MAX_ASSOC`). The touch log is not encoded: it only steers
// `clear`, and decode rebuilds it as exactly the non-empty sets. Empty
// sets decode without allocating.
impl<P: glsc_wire::Wire> TagArray<P> {
    /// Appends the sparse encoding.
    pub(crate) fn encode(&self, w: &mut glsc_wire::Writer) {
        w.put_u64(self.sets.len() as u64);
        w.put_u64(self.assoc as u64);
        w.put_u64(self.line_bytes);
        w.put_u64(self.stamp);
        let live = self.live_sets();
        w.put_u64(live.len() as u64);
        for i in live {
            let set = &self.sets[i as usize];
            w.put_u32(i);
            w.put_u8(set.len() as u8);
            for Slot { line, lru, payload } in set {
                w.put_u64(*line);
                w.put_u8(set.iter().filter(|s| s.lru < *lru).count() as u8);
                payload.encode(w);
            }
        }
    }

    /// Decodes an array that must have exactly the given geometry (the
    /// decoded configuration's), checked before anything is allocated.
    ///
    /// # Errors
    ///
    /// A typed [`glsc_wire::WireError`] for truncation, a geometry that
    /// disagrees with the expected one, a set index out of range or not
    /// strictly ascending, an empty set or one longer than `assoc`, a
    /// line stored in a set its address does not map to, a line stored
    /// twice in one set, and LRU ranks that are not a permutation of the
    /// set's slots.
    pub(crate) fn decode_shaped(
        r: &mut glsc_wire::Reader<'_>,
        sets: usize,
        assoc: usize,
        line_bytes: u64,
    ) -> Result<Self, glsc_wire::WireError> {
        let invalid = |at, what| Err(glsc_wire::WireError::Invalid { at, what });
        let at = r.pos();
        let geometry = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
        if geometry != (sets as u64, assoc as u64, line_bytes) {
            return invalid(at, "tag-array geometry");
        }
        let mut arr = Self {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            assoc,
            line_bytes,
            stamp: r.get_u64()?,
            touched: Vec::new(),
            dirty_all: false,
        };
        let at = r.pos();
        let live = r.get_len()?;
        if live > sets {
            return invalid(at, "live set count");
        }
        arr.touched.reserve_exact(live);
        for _ in 0..live {
            let at = r.pos();
            let i = r.get_u32()?;
            if i as usize >= sets || arr.touched.last().is_some_and(|&l| i <= l) {
                return invalid(at, "tag set index");
            }
            let at = r.pos();
            let n = r.get_u8()? as usize;
            if n == 0 || n > assoc {
                return invalid(at, "tag set occupancy");
            }
            let mut set: Vec<Slot<P>> = Vec::with_capacity(assoc);
            for _ in 0..n {
                let at = r.pos();
                let line = r.get_u64()?;
                if line % line_bytes != 0 || arr.set_index(line) != i as usize {
                    return invalid(at, "line in the wrong tag set");
                }
                if set.iter().any(|s| s.line == line) {
                    return invalid(at, "duplicate line in a tag set");
                }
                let at = r.pos();
                let rank = r.get_u8()? as u64;
                if rank >= n as u64 || set.iter().any(|s| s.lru == rank) {
                    return invalid(at, "LRU rank");
                }
                set.push(Slot {
                    line,
                    lru: rank,
                    payload: P::decode(r)?,
                });
            }
            arr.sets[i as usize] = set;
            arr.touched.push(i);
        }
        Ok(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> TagArray<u32> {
        TagArray::new(2, 2, 64)
    }

    #[test]
    fn hit_and_miss() {
        let mut a = arr();
        assert!(a.lookup_mut(0).is_none());
        a.insert(0, 10);
        assert_eq!(a.lookup_mut(0), Some(&mut 10));
        assert_eq!(a.peek(0), Some(&10));
        assert!(a.peek(64).is_none());
    }

    #[test]
    fn same_set_lines_evict_lru() {
        let mut a = arr();
        // Lines 0, 128, 256 all map to set 0 (2 sets of 64B lines).
        a.insert(0, 1);
        a.insert(128, 2);
        // Touch line 0 so 128 becomes LRU.
        a.lookup_mut(0);
        let evicted = a.insert(256, 3);
        assert_eq!(evicted, Some((128, 2)));
        assert!(a.peek(0).is_some());
        assert!(a.peek(256).is_some());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(64, 2); // set 1
        a.insert(128, 3); // set 0
        assert_eq!(a.len(), 3);
        assert!(a.insert(192, 4).is_none()); // set 1, second way
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn invalidate_removes() {
        let mut a = arr();
        a.insert(0, 1);
        assert_eq!(a.invalidate(0), Some(1));
        assert_eq!(a.invalidate(0), None);
        assert!(a.is_empty());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(128, 2);
        // peek line 0: should NOT protect it.
        let _ = a.peek(0);
        let evicted = a.insert(256, 3);
        assert_eq!(evicted, Some((0, 1)));
    }

    #[test]
    fn clear_drops_every_resident_line() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(64, 2);
        a.insert(128, 3);
        a.clear();
        assert!(a.is_empty());
        assert!(a.peek(0).is_none() && a.peek(64).is_none() && a.peek(128).is_none());
        // Reusable after clear, including sets emptied and re-touched.
        a.insert(0, 9);
        assert_eq!(a.peek(0), Some(&9));
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn clear_survives_touch_log_overflow() {
        // Churn one set empty/non-empty more times than there are sets:
        // the touch log gives up (dirty_all) and clear must still drop
        // everything, repeatedly.
        let mut a = arr();
        for round in 0..3 {
            for i in 0..8u64 {
                a.insert(0, i as u32);
                if i < 7 {
                    a.invalidate(0);
                }
            }
            a.insert(64, 42);
            a.clear();
            assert!(a.is_empty(), "round {round}");
            assert!(a.peek(0).is_none() && a.peek(64).is_none(), "round {round}");
        }
    }

    fn decode(bytes: &[u8]) -> Result<TagArray<u32>, glsc_wire::WireError> {
        let mut r = glsc_wire::Reader::new(bytes);
        let a = TagArray::decode_shaped(&mut r, 2, 2, 64)?;
        r.finish()?;
        Ok(a)
    }

    fn what(bytes: &[u8]) -> &'static str {
        match decode(bytes) {
            Err(glsc_wire::WireError::Invalid { what, .. }) => what,
            other => panic!("expected a typed Invalid error, got {other:?}"),
        }
    }

    /// One crafted set: its index and its (line, LRU rank, payload) slots.
    type CraftedSet<'a> = (u32, &'a [(u64, u8, u32)]);

    /// Hand-encodes a 2x2 array of 64-byte lines: header, then `sets`.
    fn craft(sets: &[CraftedSet<'_>]) -> Vec<u8> {
        let mut w = glsc_wire::Writer::new();
        for v in [2, 2, 64, 9, sets.len() as u64] {
            w.put_u64(v);
        }
        for (i, slots) in sets {
            w.put_u32(*i);
            w.put_u8(slots.len() as u8);
            for &(line, rank, payload) in *slots {
                w.put_u64(line);
                w.put_u8(rank);
                w.put_u32(payload);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn sparse_encoding_round_trips_replacement_state() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(128, 2);
        a.lookup_mut(0); // 128 is now LRU in set 0
        let mut w = glsc_wire::Writer::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        // Header (5 words) + one live set (index, occupancy, 2 slots of
        // line + rank + payload).
        assert_eq!(bytes.len(), 5 * 8 + 5 + 2 * 13);
        let mut b = decode(&bytes).unwrap();
        let mut again = glsc_wire::Writer::new();
        b.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        // Same victim, and the rebuilt touch log still clears everything.
        assert_eq!(b.insert(256, 3), a.insert(256, 3));
        b.insert(64, 4);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn restore_from_copies_only_live_sets_and_matches_the_source() {
        let mut src = arr();
        src.insert(64, 7);
        src.insert(0, 8);
        let mut dst = arr();
        dst.insert(128, 1);
        dst.insert(192, 2);
        dst.restore_from(&src);
        let lines = |a: &TagArray<u32>| {
            let mut v: Vec<(u64, u32)> = a.iter().map(|(l, p)| (l, *p)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(lines(&dst), lines(&src));
        assert_eq!(dst.insert(256, 3), src.insert(256, 3));
        assert_eq!(dst.insert(320, 4), src.insert(320, 4));
        assert_eq!(lines(&dst), lines(&src));
    }

    #[test]
    fn hostile_sparse_sets_are_typed_errors() {
        assert_eq!(what(&craft(&[(2, &[(128, 0, 0)])])), "tag set index");
        assert_eq!(
            what(&craft(&[(1, &[(64, 0, 0)]), (0, &[(0, 0, 0)])])),
            "tag set index"
        );
        assert_eq!(
            what(&craft(&[(0, &[(0, 0, 0)]), (0, &[(128, 0, 0)])])),
            "tag set index"
        );
        assert_eq!(what(&craft(&[(0, &[])])), "tag set occupancy");
        assert_eq!(
            what(&craft(&[(0, &[(0, 0, 0), (128, 1, 0), (256, 2, 0)])])),
            "tag set occupancy"
        );
        assert_eq!(
            what(&craft(&[(0, &[(64, 0, 0)])])),
            "line in the wrong tag set"
        );
        assert_eq!(
            what(&craft(&[(0, &[(8, 0, 0)])])),
            "line in the wrong tag set"
        );
        assert_eq!(
            what(&craft(&[(0, &[(0, 0, 0), (0, 1, 0)])])),
            "duplicate line in a tag set"
        );
        assert_eq!(what(&craft(&[(0, &[(0, 1, 0)])])), "LRU rank");
        assert_eq!(what(&craft(&[(0, &[(0, 0, 0), (128, 0, 0)])])), "LRU rank");
        let mut three_sets = craft(&[]);
        three_sets[..8].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(what(&three_sets), "tag-array geometry");
        assert!(decode(&craft(&[
            (0, &[(0, 1, 0), (128, 0, 0)]),
            (1, &[(64, 0, 0)])
        ]))
        .is_ok());
    }

    #[test]
    fn iter_and_len() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(64, 2);
        let mut lines: Vec<u64> = a.iter().map(|(l, _)| l).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 64]);
    }
}
