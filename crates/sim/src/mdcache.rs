//! The unified metadata cache at the memory controller.
//!
//! Two structural designs sit behind one interface: the paper's
//! set-associative cache and a MIRAGE-style fully-associative randomized
//! cache ([`MdcDesign`]). Every policy knob, the differential oracle, and
//! the fault campaigns drive both through the same entry points; accesses
//! carry the requesting [`TenantId`]. Each call books its one access (and
//! its victim's eviction, if any) straight onto the requester's stats row,
//! exactly as the backend books them globally, so per-tenant statistics
//! sum to the global counters for any interleaving. Occupancy comes from
//! a per-frame owner column ([`FrameOwners`]) updated on fill, eviction,
//! and drain: the randomized backend keeps its own (its frame quota reads
//! it), and the set-associative backend keeps one beside the cache,
//! indexed by the frame each fill reports.

use maps_cache::policy::AnyPolicy;
use maps_cache::{
    CacheConfig, CacheStats, DuelingController, FrameOwners, Line, RandomizedCache, SetAssocCache,
    TenantPartition, TenantStatsTable,
};
use maps_trace::{BlockKind, TenantId};

use crate::config::{CacheContents, MdcConfig, MdcDesign, PartitionMode};

/// Outcome of a metadata cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Line evicted to make room, if any.
    pub evicted: Option<Line>,
    /// `true` when the kind is not admitted under the contents
    /// configuration (the access was a statistics-only probe).
    pub bypassed: bool,
}

/// The pluggable cache core behind the metadata-cache interface. One
/// backend exists per cache, so boxing the larger variant would only add
/// an indirection to every access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend {
    /// Set-associative (the paper's design), with the owning tenant of
    /// each of its frames.
    Set(SetAssocCache<AnyPolicy>, FrameOwners),
    /// Fully-associative randomized (MIRAGE-style).
    Rand(RandomizedCache),
}

/// A metadata cache holding (a configurable subset of) counters, hashes,
/// and tree nodes, with optional way partitioning, set dueling, and
/// per-tenant accounting.
///
/// # Examples
///
/// ```
/// use maps_sim::{MdcConfig, MetadataCache};
/// use maps_trace::{BlockKind, TenantId};
///
/// let mut mdc = MetadataCache::new(&MdcConfig::paper_default()).unwrap();
/// let miss = mdc.access(100, BlockKind::Counter, false, TenantId::HOST);
/// assert!(!miss.hit);
/// assert!(mdc.access(100, BlockKind::Counter, false, TenantId::HOST).hit);
/// ```
#[derive(Debug)]
pub struct MetadataCache {
    backend: Backend,
    contents: CacheContents,
    partial_writes: bool,
    dueling: Option<DuelingController>,
    /// Per-tenant way split (set-associative design; the randomized
    /// design enforces the equivalent frame quota internally).
    tenant_split: Option<TenantPartition>,
    ways: usize,
    tenants: TenantStatsTable,
}

impl MetadataCache {
    /// Builds the cache, or `None` when the configuration disables it
    /// (zero capacity).
    ///
    /// Under the randomized design, replacement policy and counter/hash
    /// partitions (static or dueling) are structural no-ops — there are
    /// no ways to partition and eviction is global-random by design;
    /// [`PartitionMode::PerTenant`] maps to a per-tenant frame quota.
    ///
    /// # Panics
    ///
    /// Panics if a static partition is invalid for the associativity, if
    /// a dynamic partition requests more leader sets than exist, or if a
    /// per-tenant split would starve a tenant.
    pub fn new(cfg: &MdcConfig) -> Option<Self> {
        if cfg.size_bytes == 0 {
            return None;
        }
        let mut dueling = None;
        let mut tenant_split = None;
        let backend = match cfg.design {
            MdcDesign::SetAssoc => {
                let geometry = CacheConfig::from_bytes(cfg.size_bytes, cfg.ways);
                let mut cache = SetAssocCache::new(geometry, cfg.policy.build());
                match cfg.partition {
                    PartitionMode::None => {}
                    PartitionMode::Static(p) => cache.set_partition(Some(p)),
                    PartitionMode::Dynamic {
                        a,
                        b,
                        leaders_per_side,
                    } => {
                        dueling = Some(DuelingController::new(
                            geometry.sets(),
                            cfg.ways,
                            leaders_per_side,
                            a,
                            b,
                        ));
                    }
                    PartitionMode::PerTenant { tenants } => {
                        tenant_split = Some(
                            TenantPartition::new(tenants, cfg.ways)
                                .expect("per-tenant split must give every tenant a way"),
                        );
                    }
                }
                Backend::Set(cache, FrameOwners::new(geometry.blocks()))
            }
            MdcDesign::Randomized { seed } => {
                let mut cache = RandomizedCache::new(cfg.size_bytes, cfg.ways, seed);
                if let PartitionMode::PerTenant { tenants } = cfg.partition {
                    cache.set_tenant_quota(tenants);
                }
                Backend::Rand(cache)
            }
        };
        Some(Self {
            backend,
            contents: cfg.contents,
            partial_writes: cfg.partial_writes,
            dueling,
            tenant_split,
            ways: cfg.ways,
            tenants: TenantStatsTable::new(),
        })
    }

    /// Which metadata types this cache admits.
    pub fn contents(&self) -> CacheContents {
        self.contents
    }

    /// Whether partial writes are enabled.
    pub fn partial_writes_enabled(&self) -> bool {
        self.partial_writes
    }

    /// Accumulated statistics (bypassed kinds are counted as misses).
    pub fn stats(&self) -> &CacheStats {
        match &self.backend {
            Backend::Set(c, _) => c.stats(),
            Backend::Rand(c) => c.stats(),
        }
    }

    /// Per-tenant statistics, booked requester-pays: for any interleaving
    /// the rows sum to [`MetadataCache::stats`] over the same interval.
    pub fn tenant_stats(&self) -> &TenantStatsTable {
        &self.tenants
    }

    /// Resident lines last filled on behalf of `tenant`.
    pub fn tenant_occupancy(&self, tenant: u8) -> u64 {
        match &self.backend {
            Backend::Set(_, owners) => owners.occupancy(tenant),
            Backend::Rand(c) => c.tenant_occupancy(tenant),
        }
    }

    /// Tenant ids that have booked an access since the last stats reset
    /// or own a resident line, in ascending order.
    pub fn tenants(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX).filter(move |&t| {
            self.tenants.stats(t).total().accesses != 0 || self.tenant_occupancy(t) != 0
        })
    }

    /// Resets statistics after warm-up (per-tenant occupancy persists with
    /// the cache contents).
    pub fn reset_stats(&mut self) {
        match &mut self.backend {
            Backend::Set(c, _) => c.reset_stats(),
            Backend::Rand(c) => c.reset_stats(),
        }
        self.tenants.reset_stats();
    }

    /// Accesses a metadata block on behalf of `tenant`. Non-admitted
    /// kinds are probed for statistics and bypass allocation.
    #[inline]
    pub fn access(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: TenantId,
    ) -> MdOutcome {
        let out = self.access_inner(key, kind, write, tenant);
        self.tenants
            .book(tenant.0, kind, out.hit, out.evicted.as_ref());
        out
    }

    /// Write of a single 8 B sub-entry (hash or tree HMAC slot) on behalf
    /// of `tenant`. With partial writes enabled, a miss inserts a
    /// placeholder holding only `slot` and does not require a memory
    /// fetch; the caller inspects `hit`/`bypassed` to decide on DRAM
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    #[inline]
    pub fn write_partial(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
    ) -> MdOutcome {
        let out = self.write_partial_inner(key, kind, slot, tenant);
        self.tenants
            .book(tenant.0, kind, out.hit, out.evicted.as_ref());
        out
    }

    fn access_inner(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: TenantId,
    ) -> MdOutcome {
        let Self {
            backend,
            dueling,
            tenant_split,
            ways,
            contents,
            ..
        } = self;
        if !contents.admits(kind) {
            let hit = match backend {
                Backend::Set(c, _) => c.probe(key, kind),
                Backend::Rand(c) => c.probe(key, kind),
            };
            return MdOutcome {
                hit,
                evicted: None,
                bypassed: true,
            };
        }
        let r = match backend {
            Backend::Set(cache, owners) => {
                let r = if let Some(split) = tenant_split {
                    cache.access_in_ways(key, kind, write, split.ways_for(tenant.0, *ways))
                } else if dueling.is_some() {
                    let set = cache.config().set_of(key);
                    let partition = dueling.as_ref().map(|d| d.partition_for(set));
                    let r = cache.access_with(key, kind, write, partition.as_ref());
                    if !r.hit {
                        if let Some(d) = dueling {
                            d.record_miss(set);
                        }
                    }
                    r
                } else {
                    cache.access_with(key, kind, write, None)
                };
                if !r.hit {
                    owners.fill(r.frame, tenant.0, r.evicted.is_some());
                }
                r
            }
            Backend::Rand(cache) => cache.access(key, kind, write, tenant.0),
        };
        MdOutcome {
            hit: r.hit,
            evicted: r.evicted,
            bypassed: false,
        }
    }

    fn write_partial_inner(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
    ) -> MdOutcome {
        if !self.contents.admits(kind) {
            let hit = match &mut self.backend {
                Backend::Set(c, _) => c.probe(key, kind),
                Backend::Rand(c) => c.probe(key, kind),
            };
            return MdOutcome {
                hit,
                evicted: None,
                bypassed: true,
            };
        }
        let resident = match &mut self.backend {
            Backend::Set(c, _) => c.access_mark_valid(key, kind, slot).is_some(),
            Backend::Rand(c) => c.access_mark_valid(key, kind, slot).is_some(),
        };
        if resident {
            return MdOutcome {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }
        if !self.partial_writes {
            // Caller must fetch the block from memory; insert it complete.
            return self.access_inner(key, kind, true, tenant);
        }
        let Self {
            backend,
            dueling,
            tenant_split,
            ways,
            ..
        } = self;
        // Record the miss in both cache stats and the dueling selector.
        let evicted = match backend {
            Backend::Set(cache, owners) => {
                let set = cache.config().set_of(key);
                let partition = dueling.as_ref().map(|d| d.partition_for(set));
                cache.probe(key, kind);
                if let Some(d) = dueling {
                    d.record_miss(set);
                }
                let r = if let Some(split) = tenant_split {
                    cache.insert_placeholder_in_ways(
                        key,
                        kind,
                        slot,
                        split.ways_for(tenant.0, *ways),
                    )
                } else {
                    cache.insert_placeholder(key, kind, slot, partition.as_ref())
                };
                owners.fill(r.frame, tenant.0, r.evicted.is_some());
                r.evicted
            }
            Backend::Rand(cache) => {
                cache.probe(key, kind);
                cache.insert_placeholder(key, kind, slot, tenant.0).evicted
            }
        };
        MdOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: u64) -> bool {
        match &self.backend {
            Backend::Set(c, _) => c.contains(key),
            Backend::Rand(c) => c.contains(key),
        }
    }

    /// Valid mask of a resident line, if any.
    pub fn valid_mask(&self, key: u64) -> Option<u8> {
        match &self.backend {
            Backend::Set(c, _) => c.line(key).map(|l| l.valid_mask),
            Backend::Rand(c) => c.line(key).map(|l| l.valid_mask),
        }
    }

    /// Marks a resident line fully valid (after a completing fill read).
    pub fn complete_line(&mut self, key: u64) {
        for slot in 0..8 {
            let marked = match &mut self.backend {
                Backend::Set(c, _) => c.mark_valid(key, slot),
                Backend::Rand(c) => c.mark_valid(key, slot),
            };
            if marked.is_none() {
                break;
            }
        }
    }

    /// Drains all resident lines (end-of-run writeback accounting),
    /// leaving every tenant's occupancy at zero.
    pub fn drain(&mut self) -> Vec<Line> {
        match &mut self.backend {
            Backend::Set(c, owners) => {
                owners.clear();
                c.drain()
            }
            Backend::Rand(c) => c.drain(),
        }
    }

    /// Iterates over resident lines (for contents inspection, e.g. the
    /// per-set diversity analysis of Section V-C). Lines are materialized
    /// from the backend's column store.
    pub fn resident_lines(&self) -> Box<dyn Iterator<Item = Line> + '_> {
        match &self.backend {
            Backend::Set(c, _) => Box::new(c.resident_lines()),
            Backend::Rand(c) => Box::new(c.resident_lines()),
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        match &self.backend {
            Backend::Set(c, _) => c.occupancy(),
            Backend::Rand(c) => c.occupancy(),
        }
    }

    /// The inner cache's access counter (policy time base).
    pub fn time(&self) -> u64 {
        match &self.backend {
            Backend::Set(c, _) => c.time(),
            Backend::Rand(c) => c.time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyChoice;
    use maps_cache::Partition;

    const T0: TenantId = TenantId::HOST;

    fn cfg() -> MdcConfig {
        MdcConfig::paper_default().with_size(4096)
    }

    #[test]
    fn zero_size_disables() {
        assert!(MetadataCache::new(&MdcConfig::disabled()).is_none());
    }

    #[test]
    fn bypassed_kinds_probe_only() {
        let mut mdc =
            MetadataCache::new(&cfg().with_contents(CacheContents::COUNTERS_ONLY)).unwrap();
        let out = mdc.access(7, BlockKind::Hash, false, T0);
        assert!(out.bypassed);
        assert!(!out.hit);
        assert!(!mdc.contains(7));
        // Misses recorded for MPKI accounting.
        assert_eq!(mdc.stats().kind(BlockKind::Hash).misses, 1);
    }

    #[test]
    fn partial_write_inserts_placeholder_without_fetch() {
        let mut cfg = cfg();
        cfg.partial_writes = true;
        let mut mdc = MetadataCache::new(&cfg).unwrap();
        let out = mdc.write_partial(9, BlockKind::Hash, 3, T0);
        assert!(!out.hit);
        assert!(!out.bypassed);
        assert_eq!(mdc.valid_mask(9), Some(0b1000));
        // A second write to another slot coalesces.
        let out2 = mdc.write_partial(9, BlockKind::Hash, 4, T0);
        assert!(out2.hit);
        assert_eq!(mdc.valid_mask(9), Some(0b11000));
    }

    #[test]
    fn without_partial_writes_misses_insert_complete() {
        let mut mdc = MetadataCache::new(&cfg()).unwrap();
        let out = mdc.write_partial(9, BlockKind::Hash, 3, T0);
        assert!(!out.hit);
        assert_eq!(mdc.valid_mask(9), Some(0xFF));
    }

    #[test]
    fn complete_line_fills_mask() {
        let mut cfg = cfg();
        cfg.partial_writes = true;
        let mut mdc = MetadataCache::new(&cfg).unwrap();
        mdc.write_partial(9, BlockKind::Hash, 0, T0);
        mdc.complete_line(9);
        assert_eq!(mdc.valid_mask(9), Some(0xFF));
    }

    #[test]
    fn static_partition_separates_counters_and_hashes() {
        let mut c = cfg();
        c.partition = PartitionMode::Static(Partition::counter_ways(4));
        c.policy = PolicyChoice::TrueLru;
        let mut mdc = MetadataCache::new(&c).unwrap();
        let sets = 4096 / 64 / 8; // 8 sets
                                  // Fill one set with counters far beyond 4 ways: occupancy in that
                                  // set must cap at 4 counter lines.
        for i in 0..32u64 {
            mdc.access(i * sets as u64, BlockKind::Counter, false, T0);
        }
        assert_eq!(mdc.occupancy(), 4);
    }

    #[test]
    fn dynamic_mode_constructs_and_runs() {
        let mut c = cfg();
        c.partition = PartitionMode::Dynamic {
            a: Partition::counter_ways(2),
            b: Partition::counter_ways(6),
            leaders_per_side: 2,
        };
        let mut mdc = MetadataCache::new(&c).unwrap();
        for i in 0..1000u64 {
            mdc.access(i, BlockKind::Counter, false, T0);
            mdc.access(10_000 + i, BlockKind::Hash, i % 3 == 0, T0);
        }
        assert!(mdc.stats().total().accesses >= 2000);
    }

    #[test]
    fn per_tenant_split_confines_fills_to_way_shares() {
        let mut c = cfg();
        c.partition = PartitionMode::PerTenant { tenants: 2 };
        c.policy = PolicyChoice::TrueLru;
        let mut mdc = MetadataCache::new(&c).unwrap();
        let sets = 4096 / 64 / 8; // 8 sets
                                  // One tenant hammering a single set can occupy at most its 4-way
                                  // share, leaving the other tenant's ways untouched.
        for i in 0..32u64 {
            mdc.access(i * sets as u64, BlockKind::Counter, false, TenantId(1));
        }
        assert_eq!(mdc.occupancy(), 4);
        assert_eq!(mdc.tenant_occupancy(1), 4);
        assert_eq!(mdc.tenant_occupancy(2), 0);
        // The other tenant still fills its own share of the same set.
        for i in 0..32u64 {
            mdc.access(1 + i * sets as u64, BlockKind::Counter, false, TenantId(2));
        }
        assert_eq!(mdc.tenant_occupancy(2), 4);
    }

    #[test]
    fn randomized_backend_serves_the_same_interface() {
        let mut c = cfg();
        c.design = MdcDesign::Randomized { seed: 7 };
        c.partial_writes = true;
        let mut mdc = MetadataCache::new(&c).unwrap();
        assert!(!mdc.access(5, BlockKind::Counter, false, T0).hit);
        assert!(mdc.access(5, BlockKind::Counter, false, T0).hit);
        let out = mdc.write_partial(9, BlockKind::Hash, 3, T0);
        assert!(!out.hit && !out.bypassed);
        assert_eq!(mdc.valid_mask(9), Some(0b1000));
        mdc.complete_line(9);
        assert_eq!(mdc.valid_mask(9), Some(0xFF));
        assert_eq!(mdc.occupancy(), 2);
        assert_eq!(mdc.drain().len(), 2);
        assert_eq!(mdc.occupancy(), 0);
    }

    #[test]
    fn tenant_attribution_sums_to_global_and_tracks_occupancy() {
        let mut c = cfg();
        c.partition = PartitionMode::PerTenant { tenants: 2 };
        let mut mdc = MetadataCache::new(&c).unwrap();
        for i in 0..500u64 {
            let tenant = TenantId((i % 2) as u8);
            mdc.access(i % 90, BlockKind::Counter, i % 3 == 0, tenant);
        }
        let combined = mdc.tenant_stats().combined();
        assert_eq!(combined, *mdc.stats());
        let occ: u64 = (0u8..2).map(|t| mdc.tenant_occupancy(t)).sum();
        assert_eq!(occ, mdc.occupancy() as u64);
        // Drain clears the ledger.
        mdc.drain();
        assert_eq!(mdc.tenant_occupancy(0), 0);
        assert_eq!(mdc.tenant_occupancy(1), 0);
    }

    /// Σ per-tenant occupancy over every tenant id.
    fn booked_occupancy(mdc: &MetadataCache) -> u64 {
        (0..=u8::MAX).map(|t| mdc.tenant_occupancy(t)).sum()
    }

    #[test]
    fn set_assoc_ownership_follows_fills_placeholders_and_evictions() {
        let mut c = cfg(); // 8 sets x 8 ways
        c.policy = PolicyChoice::TrueLru;
        c.partial_writes = true;
        let mut mdc = MetadataCache::new(&c).unwrap();
        let sets = 8u64;
        // Tenant 1 fills set 0 completely.
        for i in 0..8u64 {
            mdc.access(i * sets, BlockKind::Counter, false, TenantId(1));
        }
        assert_eq!(mdc.tenant_occupancy(1), 8);
        // A placeholder insert by tenant 2 evicts tenant 1's LRU line.
        let out = mdc.write_partial(8 * sets, BlockKind::Hash, 2, TenantId(2));
        assert_eq!(out.evicted.map(|l| l.key), Some(0));
        assert_eq!((mdc.tenant_occupancy(1), mdc.tenant_occupancy(2)), (7, 1));
        // Hits (full or partial) never move ownership.
        mdc.access(8, BlockKind::Counter, true, TenantId(2));
        mdc.write_partial(8 * sets, BlockKind::Hash, 3, TenantId(1));
        assert_eq!((mdc.tenant_occupancy(1), mdc.tenant_occupancy(2)), (7, 1));
        // Tenant 2 takes over the rest of the set, one eviction at a time.
        for i in 9..20u64 {
            mdc.access(i * sets, BlockKind::Counter, false, TenantId(2));
        }
        assert_eq!((mdc.tenant_occupancy(1), mdc.tenant_occupancy(2)), (0, 8));
        // Fills into empty frames of other sets.
        mdc.access(1, BlockKind::Tree(0), false, TenantId(3));
        assert_eq!(booked_occupancy(&mdc), mdc.occupancy() as u64);
        assert_eq!(mdc.occupancy(), 9);
        mdc.drain();
        assert_eq!(booked_occupancy(&mdc), 0);
        // Ownership restarts cleanly after a drain.
        mdc.access(5, BlockKind::Counter, false, TenantId(1));
        assert_eq!(mdc.tenant_occupancy(1), 1);
        assert_eq!(booked_occupancy(&mdc), 1);
    }

    #[test]
    fn randomized_ownership_follows_quota_evictions_and_drain() {
        let mut c = cfg(); // 64 frames
        c.design = MdcDesign::Randomized { seed: 11 };
        c.partition = PartitionMode::PerTenant { tenants: 2 };
        c.partial_writes = true;
        let mut mdc = MetadataCache::new(&c).unwrap();
        // Tenant 0 overruns its 32-frame quota: its own lines are evicted.
        for i in 0..100u64 {
            mdc.access(i, BlockKind::Counter, false, TenantId(0));
        }
        assert_eq!(mdc.tenant_occupancy(0), 32);
        // Tenant 1's placeholders take the free frames, then its own
        // quota binds.
        for i in 0..40u64 {
            mdc.write_partial(1_000 + i, BlockKind::Hash, (i % 8) as u8, TenantId(1));
        }
        assert!(mdc.tenant_occupancy(1) <= 32);
        assert_eq!(booked_occupancy(&mdc), mdc.occupancy() as u64);
        let resident = mdc.occupancy();
        assert_eq!(mdc.drain().len(), resident);
        assert_eq!(booked_occupancy(&mdc), 0);
        assert_eq!(mdc.occupancy(), 0);
    }

    #[test]
    fn single_tenant_row_equals_global_stats() {
        for design in [MdcDesign::SetAssoc, MdcDesign::Randomized { seed: 5 }] {
            for partial_writes in [false, true] {
                let mut c = cfg().with_contents(CacheContents::COUNTERS_AND_HASHES);
                c.design = design;
                c.partial_writes = partial_writes;
                let mut mdc = MetadataCache::new(&c).unwrap();
                for i in 0..2_000u64 {
                    let key = (i * 7919) % 300;
                    match i % 4 {
                        0 => mdc.access(key, BlockKind::Counter, i % 3 == 0, T0),
                        1 => mdc.write_partial(key + 1000, BlockKind::Hash, (i % 8) as u8, T0),
                        2 => mdc.access(key + 1000, BlockKind::Hash, false, T0),
                        // Tree nodes are not admitted: bypass probes.
                        _ => mdc.access(key + 2000, BlockKind::Tree(0), false, T0),
                    };
                    if i == 500 {
                        mdc.reset_stats();
                    }
                }
                assert_eq!(mdc.tenant_stats().stats(0), mdc.stats());
                assert_eq!(mdc.tenants().collect::<Vec<_>>(), vec![0]);
                assert_eq!(mdc.tenant_occupancy(0), mdc.occupancy() as u64);
            }
        }
    }

    #[test]
    fn randomized_quota_confines_tenant_occupancy() {
        let mut c = cfg(); // 64 frames
        c.design = MdcDesign::Randomized { seed: 3 };
        c.partition = PartitionMode::PerTenant { tenants: 2 };
        let mut mdc = MetadataCache::new(&c).unwrap();
        for i in 0..500u64 {
            mdc.access(i, BlockKind::Counter, false, TenantId(0));
        }
        assert!(mdc.tenant_occupancy(0) <= 32);
        for i in 10_000..10_500u64 {
            mdc.access(i, BlockKind::Counter, false, TenantId(1));
        }
        assert!(mdc.tenant_occupancy(1) >= 30);
    }
}
