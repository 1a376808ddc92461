//! The node pool: who occupies which node.

use std::sync::OnceLock;

/// Identifier of one allocation (a job's set of nodes). Never reused.
///
/// Ids are dense and monotone (0, 1, 2, …), so they double as direct
/// indices — see [`index`](AllocId::index) — letting the pool and the
/// simulation engine keep per-allocation state in plain vectors instead of
/// hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(u64);

impl AllocId {
    /// The allocation's dense slab index (its position in issue order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A run `[lo, hi)` of consecutive node indices held by one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    lo: usize,
    hi: usize,
}

/// One live allocation.
#[derive(Debug, Clone)]
struct Allocation {
    /// Maximal runs of the allocation's nodes, in ascending order; two
    /// extents of one allocation never touch.
    extents: Box<[Extent]>,
    /// The node list, built on the first [`NodePool::nodes_of`] call.
    nodes: OnceLock<Box<[usize]>>,
}

/// Tracks the occupancy of the platform's nodes.
///
/// Nodes are indexed `0..nodes`. Allocation hands out the lowest-numbered
/// free nodes (deterministic, and irrelevant to the model since nodes are
/// interchangeable — the index only matters to map a failing node to its
/// victim).
///
/// An allocation is stored as a few extents (runs of consecutive nodes),
/// not node by node: allocate and release cost `O(runs + words scanned)`,
/// independent of the number of nodes moved. Occupancy is answered by a
/// run-start bitset plus an owner entry at each run's first node.
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Free-node bitset: bit `n % 64` of word `n / 64` is set iff node
    /// `n` is free. Scanning words low-to-high keeps allocation
    /// deterministic (lowest index first).
    free_bits: Vec<u64>,
    /// Run-start bitset: set iff node `n` is the first node of an extent
    /// of a live allocation. Never set on a free node.
    run_starts: Vec<u64>,
    /// Allocation holding the extent that starts at node `n`; meaningful
    /// only where `n`'s run-start bit is set. One entry per node.
    owner: Vec<AllocId>,
    /// Number of set bits in `free_bits`.
    free_count: usize,
    /// Lowest word of `free_bits` that may contain a set bit (scan hint;
    /// every word below it is known-empty).
    first_maybe_free: usize,
    /// Each allocation ever issued, indexed by [`AllocId::index`]; `None`
    /// once released. Ids are dense, so this is a slab, not a map.
    allocs: Vec<Option<Box<Allocation>>>,
    /// Reused buffer in which `allocate` collects extents.
    scratch: Vec<Extent>,
    /// Number of live (unreleased) allocations.
    live: usize,
    next_id: u64,
}

/// Bits `from..to` of a word (`from < to <= 64`).
fn bit_range(from: usize, to: usize) -> u64 {
    debug_assert!(from < to && to <= 64);
    (!0u64 >> (64 - (to - from))) << from
}

impl NodePool {
    /// Creates a pool of `nodes` free nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "pool must have at least one node");
        let words = nodes.div_ceil(64);
        let mut free_bits = vec![!0u64; words];
        if nodes % 64 != 0 {
            free_bits[words - 1] = (1u64 << (nodes % 64)) - 1;
        }
        NodePool {
            free_bits,
            run_starts: vec![0; words],
            owner: vec![AllocId(0); nodes],
            free_count: nodes,
            first_maybe_free: 0,
            allocs: Vec::new(),
            scratch: Vec::new(),
            live: 0,
            next_id: 0,
        }
    }

    /// Total number of nodes.
    pub fn total(&self) -> usize {
        self.owner.len()
    }

    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Number of allocated nodes.
    pub fn allocated_count(&self) -> usize {
        self.total() - self.free_count()
    }

    /// Fraction of nodes allocated, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.allocated_count() as f64 / self.total() as f64
    }

    /// Allocates `q` nodes (the `q` lowest-indexed free ones), or returns
    /// `None` if fewer are free.
    pub fn allocate(&mut self, q: usize) -> Option<AllocId> {
        assert!(q > 0, "allocation must request at least one node");
        if q > self.free_count {
            return None;
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        let mut extents = std::mem::take(&mut self.scratch);
        extents.clear();
        let mut need = q;
        let start_w = self.first_maybe_free;
        let mut w = start_w;
        loop {
            debug_assert!(w < self.free_bits.len(), "free_count overstated");
            let mut bits = self.free_bits[w];
            while bits != 0 && need > 0 {
                let lo = bits.trailing_zeros() as usize;
                let len = ((bits >> lo).trailing_ones() as usize).min(need);
                bits &= !bit_range(lo, lo + len);
                need -= len;
                let start = w * 64 + lo;
                match extents.last_mut() {
                    // A run ending at bit 63 continues into the next word.
                    Some(e) if e.hi == start => e.hi += len,
                    _ => extents.push(Extent {
                        lo: start,
                        hi: start + len,
                    }),
                }
            }
            self.free_bits[w] = bits;
            if need == 0 {
                break;
            }
            w += 1;
        }
        // Every word below `w` was drained (or was already empty).
        self.first_maybe_free = w;
        coopckpt_obs::observe(coopckpt_obs::Hist::PoolScanWords, (w - start_w + 1) as u64);
        self.free_count -= q;
        for e in &extents {
            debug_assert!(!self.is_run_start(e.lo), "extent start already claimed");
            self.run_starts[e.lo / 64] |= 1u64 << (e.lo % 64);
            self.owner[e.lo] = id;
        }
        debug_assert_eq!(self.allocs.len(), id.index());
        self.allocs.push(Some(Box::new(Allocation {
            extents: extents.as_slice().into(),
            nodes: OnceLock::new(),
        })));
        self.scratch = extents;
        self.live += 1;
        self.debug_check_invariants();
        Some(id)
    }

    /// Releases an allocation, freeing its nodes. Returns the number of
    /// nodes freed, or `None` if the id is unknown (already released).
    pub fn release(&mut self, id: AllocId) -> Option<usize> {
        let alloc = self.allocs.get_mut(id.index())?.take()?;
        self.live -= 1;
        let mut freed = 0;
        for &Extent { lo, hi } in alloc.extents.iter() {
            debug_assert!(self.is_run_start(lo) && self.owner[lo] == id);
            self.run_starts[lo / 64] &= !(1u64 << (lo % 64));
            let (first_w, last_w) = (lo / 64, (hi - 1) / 64);
            for w in first_w..=last_w {
                let from = if w == first_w { lo % 64 } else { 0 };
                let to = if w == last_w { (hi - 1) % 64 + 1 } else { 64 };
                let mask = bit_range(from, to);
                debug_assert_eq!(self.free_bits[w] & mask, 0, "releasing a free node");
                self.free_bits[w] |= mask;
            }
            freed += hi - lo;
        }
        // Extents ascend, so the first one holds the lowest freed word.
        self.first_maybe_free = self.first_maybe_free.min(alloc.extents[0].lo / 64);
        self.free_count += freed;
        self.debug_check_invariants();
        Some(freed)
    }

    /// The allocation occupying `node`, if any: the owner of the nearest
    /// run start at or below `node`, found by scanning words downwards.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn occupant(&self, node: usize) -> Option<AllocId> {
        assert!(
            node < self.total(),
            "node {node} out of range for a pool of {}",
            self.total()
        );
        let (mut w, b) = (node / 64, node % 64);
        if self.free_bits[w] & (1u64 << b) != 0 {
            return None;
        }
        // An allocated node lies in exactly one extent, and no other extent
        // starts between that extent's first node and `node`.
        let mut starts = self.run_starts[w] & (!0u64 >> (63 - b));
        while starts == 0 {
            w -= 1;
            starts = self.run_starts[w];
        }
        Some(self.owner[w * 64 + 63 - starts.leading_zeros() as usize])
    }

    /// The nodes of a live allocation, in ascending order. The list is
    /// built from the allocation's extents on the first call.
    pub fn nodes_of(&self, id: AllocId) -> Option<&[usize]> {
        let alloc = self.allocs.get(id.index())?.as_deref()?;
        Some(
            alloc
                .nodes
                .get_or_init(|| alloc.extents.iter().flat_map(|e| e.lo..e.hi).collect()),
        )
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live
    }

    fn is_run_start(&self, node: usize) -> bool {
        self.run_starts[node / 64] & (1u64 << (node % 64)) != 0
    }

    /// Debug-build audit after every allocate/release: `free_count`
    /// matches the free bitset's popcount, and every run-start bit sits on
    /// an allocated node.
    fn debug_check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let popcount: usize = self.free_bits.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(
            self.free_count, popcount,
            "free_count differs from the free bitset"
        );
        for (w, (starts, free)) in self.run_starts.iter().zip(&self.free_bits).enumerate() {
            assert_eq!(starts & free, 0, "run start on a free node in word {w}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(4).unwrap();
        assert_eq!(pool.free_count(), 6);
        assert_eq!(pool.allocated_count(), 4);
        assert_eq!(pool.nodes_of(a).unwrap().len(), 4);
        assert_eq!(pool.release(a), Some(4));
        assert_eq!(pool.free_count(), 10);
        assert!(pool.release(a).is_none(), "double release is a no-op");
    }

    #[test]
    fn refuses_oversized_requests() {
        let mut pool = NodePool::new(5);
        assert!(pool.allocate(6).is_none());
        let _a = pool.allocate(3).unwrap();
        assert!(pool.allocate(3).is_none());
        assert!(pool.allocate(2).is_some());
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn occupant_lookup() {
        let mut pool = NodePool::new(8);
        let a = pool.allocate(3).unwrap();
        let b = pool.allocate(2).unwrap();
        for n in 0..8 {
            let occ = pool.occupant(n);
            if pool.nodes_of(a).unwrap().contains(&n) {
                assert_eq!(occ, Some(a));
            } else if pool.nodes_of(b).unwrap().contains(&n) {
                assert_eq!(occ, Some(b));
            } else {
                assert_eq!(occ, None);
            }
        }
    }

    #[test]
    fn lowest_nodes_allocated_first() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(3).unwrap();
        assert_eq!(pool.nodes_of(a).unwrap(), &[0, 1, 2]);
        let b = pool.allocate(2).unwrap();
        assert_eq!(pool.nodes_of(b).unwrap(), &[3, 4]);
        pool.release(a);
        let c = pool.allocate(4).unwrap();
        assert_eq!(pool.nodes_of(c).unwrap(), &[0, 1, 2, 5]);
    }

    #[test]
    fn extents_merge_across_word_boundaries() {
        let mut pool = NodePool::new(200);
        let a = pool.allocate(60).unwrap();
        let b = pool.allocate(10).unwrap();
        let c = pool.allocate(130).unwrap();
        assert_eq!(
            pool.allocs[b.index()].as_ref().unwrap().extents[..],
            [Extent { lo: 60, hi: 70 }]
        );
        assert_eq!(
            pool.allocs[c.index()].as_ref().unwrap().extents[..],
            [Extent { lo: 70, hi: 200 }]
        );
        // Node 199 is 129 nodes past its run start, two words back.
        assert_eq!(pool.occupant(199), Some(c));
        pool.release(b);
        assert_eq!(pool.occupant(63), None);
        assert_eq!(pool.occupant(59), Some(a));
        assert_eq!(pool.occupant(70), Some(c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn occupant_out_of_range_panics() {
        // Node 10 lies in the bitset's padding: it must not read as occupied.
        NodePool::new(10).occupant(10);
    }

    #[test]
    fn utilization_fraction() {
        let mut pool = NodePool::new(100);
        assert_eq!(pool.utilization(), 0.0);
        pool.allocate(25).unwrap();
        assert!((pool.utilization() - 0.25).abs() < 1e-12);
        pool.allocate(75).unwrap();
        assert_eq!(pool.utilization(), 1.0);
    }

    #[test]
    fn live_allocation_count() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(1).unwrap();
        let _b = pool.allocate(1).unwrap();
        assert_eq!(pool.live_allocations(), 2);
        pool.release(a);
        assert_eq!(pool.live_allocations(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_size_pool_rejected() {
        NodePool::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_request_rejected() {
        NodePool::new(4).allocate(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The per-node pool the extent pool replaced, kept as the oracle: a
    /// node → occupant map and an explicit node list per allocation.
    struct NaivePool {
        assignment: Vec<Option<AllocId>>,
        allocs: Vec<Option<Vec<usize>>>,
        live: usize,
    }

    impl NaivePool {
        fn new(nodes: usize) -> Self {
            NaivePool {
                assignment: vec![None; nodes],
                allocs: Vec::new(),
                live: 0,
            }
        }

        fn free_count(&self) -> usize {
            self.assignment.iter().filter(|a| a.is_none()).count()
        }

        fn allocate(&mut self, q: usize) -> Option<AllocId> {
            if q > self.free_count() {
                return None;
            }
            let id = AllocId(self.allocs.len() as u64);
            let nodes: Vec<usize> = (0..self.assignment.len())
                .filter(|&n| self.assignment[n].is_none())
                .take(q)
                .collect();
            for &n in &nodes {
                self.assignment[n] = Some(id);
            }
            self.allocs.push(Some(nodes));
            self.live += 1;
            Some(id)
        }

        fn release(&mut self, id: AllocId) -> Option<usize> {
            let nodes = self.allocs.get_mut(id.index())?.take()?;
            for &n in &nodes {
                self.assignment[n] = None;
            }
            self.live -= 1;
            Some(nodes.len())
        }
    }

    /// Pool sizes covering one node, a partial last word, exactly one
    /// word, one node past a word, several words, and the `exascale`
    /// preset's 12,655 nodes.
    const SIZES: [usize; 6] = [1, 63, 64, 65, 200, 12_655];

    /// One step: release a live allocation (`pick` chooses which), or
    /// allocate; `scale` picks single nodes, word-crossing sizes, large
    /// blocks, or requests that may exceed the free count.
    fn step_strategy() -> impl Strategy<Value = (bool, u64, u8, u64)> {
        (proptest::bool::ANY, 0u64..u64::MAX, 0u8..4, 0u64..u64::MAX)
    }

    fn request(size: usize, scale: u8, draw: u64) -> usize {
        let cap = match scale {
            0 => 4,
            1 => 130,
            2 => size / 3,
            _ => size,
        };
        1 + (draw % cap.max(1) as u64) as usize
    }

    proptest! {
        /// Free + allocated always equals total; no node is double-assigned.
        #[test]
        fn conservation_under_random_ops(ops in proptest::collection::vec((1usize..20, proptest::bool::ANY), 1..100)) {
            let mut pool = NodePool::new(64);
            let mut live: Vec<AllocId> = Vec::new();
            for (q, release_first) in ops {
                if release_first && !live.is_empty() {
                    let id = live.remove(0);
                    pool.release(id);
                }
                if let Some(id) = pool.allocate(q) {
                    live.push(id);
                }
                prop_assert_eq!(pool.free_count() + pool.allocated_count(), 64);
                // Occupancy consistent with the allocation table.
                let assigned = (0..64).filter(|&n| pool.occupant(n).is_some()).count();
                prop_assert_eq!(assigned, pool.allocated_count());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random allocate/release sequences leave the extent pool and the
        /// per-node oracle in the same state after every step.
        #[test]
        fn matches_per_node_oracle(steps in proptest::collection::vec(step_strategy(), 1..80)) {
            for size in SIZES {
                let mut pool = NodePool::new(size);
                let mut oracle = NaivePool::new(size);
                let mut live: Vec<AllocId> = Vec::new();
                let mut released: Vec<AllocId> = Vec::new();
                for &(release, pick, scale, draw) in &steps {
                    if release && !live.is_empty() {
                        let id = live.swap_remove((pick % live.len() as u64) as usize);
                        prop_assert_eq!(pool.release(id), oracle.release(id));
                        released.push(id);
                    } else {
                        let q = request(size, scale, draw);
                        let id = pool.allocate(q);
                        prop_assert_eq!(id, oracle.allocate(q));
                        live.extend(id);
                    }
                    prop_assert_eq!(pool.free_count(), oracle.free_count());
                    prop_assert_eq!(pool.live_allocations(), oracle.live);
                    for n in 0..size {
                        prop_assert_eq!(pool.occupant(n), oracle.assignment[n], "node {}", n);
                    }
                    for &id in live.iter().chain(&released) {
                        prop_assert_eq!(pool.nodes_of(id), oracle.allocs[id.index()].as_deref());
                    }
                    if let Some(&id) = released.last() {
                        prop_assert_eq!(pool.release(id), None);
                    }
                }
            }
        }
    }
}
