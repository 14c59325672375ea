//! Per-tenant way partitioning and accounting.
//!
//! Production secure memory serves several mutually distrusting tenants
//! through one metadata cache. This module carries the pieces the
//! multi-tenant scenarios need from the cache layer:
//!
//! * [`TenantPartition`] — an even static split of a set-associative
//!   cache's ways among N tenants, generalizing the two-sided
//!   counter/hash [`Partition`](crate::Partition) to a per-requester
//!   dimension. Fills are confined to the requester's way range via
//!   [`SetAssocCache::access_in_ways`](crate::SetAssocCache::access_in_ways);
//!   hits are range-unrestricted (shared metadata such as upper tree
//!   levels stays usable by everyone, exactly like way-based DRAM cache
//!   partitioning in real parts).
//! * [`TenantStatsTable`] — per-tenant [`CacheStats`], booked directly:
//!   each metadata-cache call records its one access (and its eviction,
//!   if it returned a victim) on the requester's row, exactly as the
//!   backend records them globally, so the per-tenant counters sum to the
//!   global ones for *any* interleaving.
//! * [`FrameOwners`] — the owning tenant of every frame plus live frames
//!   per tenant, updated on fill, eviction, and drain. Per-tenant
//!   occupancy is read from it; both metadata-cache backends share it.
//!
//! Everything here is deterministic, hash-free, and allocation-free on
//! the access path: tenant rows are fixed arrays indexed by the `u8` id.

use std::fmt;

use maps_trace::BlockKind;

use crate::{CacheStats, Line};

/// An invalid tenant split: every tenant must get at least one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPartitionError {
    /// Requested tenant count.
    pub tenants: usize,
    /// Cache associativity it was checked against.
    pub ways: usize,
}

impl fmt::Display for TenantPartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant partition of {} tenant(s) over {} way(s) must give every tenant at least one way",
            self.tenants, self.ways
        )
    }
}

impl std::error::Error for TenantPartitionError {}

/// An even static split of `ways` among `tenants` requesters.
///
/// Tenant `i` owns the half-open way range returned by
/// [`TenantPartition::ways_for`]; when `ways` is not a multiple of
/// `tenants` the first `ways % tenants` tenants get one extra way.
///
/// # Examples
///
/// ```
/// use maps_cache::TenantPartition;
/// let p = TenantPartition::new(3, 8).unwrap();
/// assert_eq!(p.ways_for(0, 8), (0, 3));
/// assert_eq!(p.ways_for(1, 8), (3, 6));
/// assert_eq!(p.ways_for(2, 8), (6, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantPartition {
    tenants: usize,
}

impl TenantPartition {
    /// A checked split: requires `1 <= tenants <= ways` so every tenant
    /// owns at least one way.
    ///
    /// # Errors
    ///
    /// [`TenantPartitionError`] when a tenant would be starved.
    pub fn new(tenants: usize, ways: usize) -> Result<Self, TenantPartitionError> {
        if tenants >= 1 && tenants <= ways {
            Ok(Self { tenants })
        } else {
            Err(TenantPartitionError { tenants, ways })
        }
    }

    /// Number of tenants in the split.
    pub const fn tenants(&self) -> usize {
        self.tenants
    }

    /// Half-open way range `[lo, hi)` owned by `tenant` at associativity
    /// `ways`. Tenant ids at or above the tenant count wrap (`id %
    /// tenants`), so callers can pass raw ids without pre-clamping.
    pub fn ways_for(&self, tenant: u8, ways: usize) -> (usize, usize) {
        let t = (tenant as usize) % self.tenants;
        let base = ways / self.tenants;
        let rem = ways % self.tenants;
        let lo = t * base + t.min(rem);
        let hi = lo + base + usize::from(t < rem);
        (lo, hi.min(ways))
    }

    /// Frame quota for the fully-associative randomized design: the even
    /// share of `capacity` frames, never below one frame.
    pub fn frame_quota(&self, capacity: usize) -> usize {
        (capacity / self.tenants).max(1)
    }
}

/// Number of distinct tenant ids (`u8`): per-tenant tables are fixed
/// arrays indexed by the raw id, so booking needs no growth check and no
/// bounds check.
const TENANT_SLOTS: usize = u8::MAX as usize + 1;

/// Per-tenant statistics for one cache, booked directly by the requester.
///
/// Every metadata-cache call records exactly one access of its kind in the
/// backend (hit, miss, or bypass probe) and at most one eviction (the
/// victim's kind and dirty bit, exactly when the call returns a victim).
/// [`TenantStatsTable::book`] records the same two facts on the
/// requester's row, so the rows sum to the backend's global counters for
/// any interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatsTable {
    stats: Box<[CacheStats; TENANT_SLOTS]>,
}

impl Default for TenantStatsTable {
    fn default() -> Self {
        Self {
            stats: Box::new([CacheStats::default(); TENANT_SLOTS]),
        }
    }
}

impl TenantStatsTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books one call on behalf of `tenant`: an access of `kind` that hit
    /// or missed, and the eviction of `evicted` if the call displaced a
    /// line.
    #[inline]
    pub fn book(&mut self, tenant: u8, kind: BlockKind, hit: bool, evicted: Option<&Line>) {
        let s = &mut self.stats[tenant as usize];
        s.record_access(kind, hit);
        if let Some(victim) = evicted {
            s.record_eviction(victim.kind, victim.dirty);
        }
    }

    /// Accumulated stats for `tenant` (zeroes if never seen).
    pub fn stats(&self, tenant: u8) -> &CacheStats {
        &self.stats[tenant as usize]
    }

    /// Sum of all per-tenant stats (equals the cache's global stats over
    /// the same interval when every access was booked).
    pub fn combined(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for s in self.stats.iter() {
            sum.accumulate(s);
        }
        sum
    }

    /// Clears per-tenant counters (e.g. after warm-up), mirroring
    /// [`SetAssocCache::reset_stats`](crate::SetAssocCache::reset_stats).
    pub fn reset_stats(&mut self) {
        for s in self.stats.iter_mut() {
            s.reset();
        }
    }
}

/// The owning tenant of every frame of one cache, plus live frames per
/// tenant.
///
/// The owner is written when a fill claims a frame and read back when the
/// frame is vacated, so eviction attribution needs no key lookup. Both
/// metadata-cache backends use it: the randomized cache keeps one
/// internally (its frame quota reads the counts), and the set-associative
/// metadata cache keeps one beside its [`SetAssocCache`](crate::SetAssocCache),
/// indexed by the frame each fill reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameOwners {
    owner: Vec<u8>,
    counts: Box<[u64; TENANT_SLOTS]>,
}

impl FrameOwners {
    /// A column for `frames` frames, all empty.
    pub fn new(frames: usize) -> Self {
        Self {
            owner: vec![0; frames],
            counts: Box::new([0; TENANT_SLOTS]),
        }
    }

    /// Records that `tenant` filled the empty `frame`.
    #[inline]
    pub fn claim(&mut self, frame: usize, tenant: u8) {
        self.owner[frame] = tenant;
        self.counts[tenant as usize] += 1;
    }

    /// Records that the occupied `frame` was vacated.
    #[inline]
    pub fn release(&mut self, frame: usize) {
        let c = &mut self.counts[self.owner[frame] as usize];
        *c = c.saturating_sub(1);
    }

    /// Records a fill of `frame` by `tenant`; `replaced` says whether the
    /// fill displaced a resident line (whose owner loses the frame).
    #[inline]
    pub fn fill(&mut self, frame: usize, tenant: u8, replaced: bool) {
        if replaced {
            self.release(frame);
        }
        self.claim(frame, tenant);
    }

    /// The tenant that last filled `frame` (meaningful while it is
    /// occupied).
    #[inline]
    pub fn owner(&self, frame: usize) -> u8 {
        self.owner[frame]
    }

    /// Live frames owned by `tenant`.
    #[inline]
    pub fn occupancy(&self, tenant: u8) -> u64 {
        self.counts[tenant as usize]
    }

    /// Forgets every frame (the cache was drained).
    pub fn clear(&mut self) {
        *self.counts = [0; TENANT_SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_trace::BlockKind;

    #[test]
    fn even_split_covers_all_ways_disjointly() {
        for tenants in 1..=8 {
            let p = TenantPartition::new(tenants, 8).unwrap();
            let mut covered = [false; 8];
            for t in 0..tenants as u8 {
                let (lo, hi) = p.ways_for(t, 8);
                assert!(lo < hi, "tenant {t} starved");
                for (w, c) in covered.iter_mut().enumerate().take(hi).skip(lo) {
                    assert!(!*c, "way {w} double-assigned");
                    *c = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "split {tenants} leaves gaps");
        }
    }

    #[test]
    fn uneven_remainder_goes_to_low_tenants() {
        let p = TenantPartition::new(3, 8).unwrap();
        assert_eq!(p.ways_for(0, 8), (0, 3));
        assert_eq!(p.ways_for(1, 8), (3, 6));
        assert_eq!(p.ways_for(2, 8), (6, 8));
        // Out-of-range ids wrap instead of panicking or starving.
        assert_eq!(p.ways_for(3, 8), p.ways_for(0, 8));
    }

    #[test]
    fn starving_splits_are_rejected() {
        assert!(TenantPartition::new(0, 8).is_err());
        assert!(TenantPartition::new(9, 8).is_err());
        let err = TenantPartition::new(16, 8).unwrap_err();
        assert!(err.to_string().contains("at least one way"));
    }

    #[test]
    fn frame_quota_never_zero() {
        let p = TenantPartition::new(4, 8).unwrap();
        assert_eq!(p.frame_quota(1024), 256);
        assert_eq!(p.frame_quota(2), 1);
    }

    #[test]
    fn direct_booking_sums_to_global() {
        let mut global = CacheStats::default();
        let mut table = TenantStatsTable::new();
        for i in 0..100u64 {
            let tenant = (i % 3) as u8;
            let hit = i % 2 == 0;
            global.record_access(BlockKind::Counter, hit);
            let victim = (i % 5 == 0).then(|| {
                let mut l = Line::filled(i, BlockKind::Hash, i);
                l.dirty = i % 10 == 0;
                global.record_eviction(l.kind, l.dirty);
                l
            });
            table.book(tenant, BlockKind::Counter, hit, victim.as_ref());
        }
        assert_eq!(table.combined(), global);
        assert_eq!(table.stats(1).total().accesses, 33);
        assert_eq!(*table.stats(7), CacheStats::default());
        table.reset_stats();
        assert_eq!(table.combined(), CacheStats::default());
    }

    #[test]
    fn frame_owners_track_fills_evictions_and_clear() {
        let mut owners = FrameOwners::new(4);
        owners.fill(0, 1, false);
        owners.fill(1, 1, false);
        owners.fill(2, 2, false);
        assert_eq!((owners.occupancy(1), owners.occupancy(2)), (2, 1));
        // Tenant 2 displaces tenant 1's line in frame 0.
        owners.fill(0, 2, true);
        assert_eq!((owners.occupancy(1), owners.occupancy(2)), (1, 2));
        assert_eq!(owners.owner(0), 2);
        owners.release(1);
        assert_eq!(owners.occupancy(1), 0);
        owners.clear();
        assert!((0..=u8::MAX).all(|t| owners.occupancy(t) == 0));
    }
}
