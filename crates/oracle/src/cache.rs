//! Naive restatements of the production cache containers.
//!
//! [`SpecCache`] keeps one `Vec<Option<Line>>` per set and finds lines by
//! scanning it — no packed tag array, no fused lookup-and-mark entry
//! points, no precomputed way-id slices, no set masks. The *replacement
//! policies themselves* are shared with production ([`AnyPolicy`]): they
//! are part of the specification (reimplementing eleven heuristics
//! bit-exactly would only manufacture false differential alarms), while
//! everything around them — residency tracking, fill/eviction plumbing,
//! statistics, the policy time base — is restated independently.
//!
//! [`SpecRandomizedCache`] restates the MIRAGE-style randomized backend
//! the same way: `Option`-per-slot tag sets and `Option`-per-frame
//! storage instead of the production struct-of-arrays, with tenant
//! occupancy recomputed by scanning rather than a ledger. The keyed index
//! ([`maps_cache::keyed_index`]), key derivation
//! ([`maps_cache::derive_keys`]), and the RNG are shared — they are the
//! specification of *where* things land — while the install decision
//! procedure (tag conflict → quota eviction → global eviction, one draw
//! max) is re-implemented and must draw identically.
//!
//! [`SpecMetadataCache`] also restates per-tenant attribution by its
//! original definition (a global-stats snapshot and delta per call, and a
//! key → owner map for occupancy), against which production's direct
//! booking and per-frame owner column are diffed.

use std::collections::BTreeMap;

use maps_cache::policy::AnyPolicy;
use maps_cache::{
    derive_keys, keyed_index, CacheStats, DuelingController, Line, Partition, Policy,
    TenantPartition, SKEWS,
};
use maps_sim::{CacheContents, MdcConfig, MdcDesign, PartitionMode};
use maps_trace::rng::SmallRng;
use maps_trace::{BlockKind, TenantId, BLOCK_BYTES};

/// Outcome of one access (mirrors `maps_cache::AccessResult`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecAccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Line evicted to make room, if any.
    pub evicted: Option<Line>,
}

/// Outcome of a metadata-cache access (mirrors `maps_sim::mdcache::MdOutcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecMdOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Line evicted to make room, if any.
    pub evicted: Option<Line>,
    /// `true` when the kind is not admitted (statistics-only probe).
    pub bypassed: bool,
}

/// The deliberately slow set-associative cache.
#[derive(Debug)]
pub struct SpecCache {
    sets: Vec<Vec<Option<Line>>>,
    ways: usize,
    policy: AnyPolicy,
    partition: Option<Partition>,
    stats: CacheStats,
    time: u64,
}

impl SpecCache {
    /// Creates a cache with `sets * ways` frames.
    pub fn new(sets: usize, ways: usize, mut policy: AnyPolicy) -> Self {
        policy.init(sets, ways);
        Self {
            sets: vec![vec![None; ways]; sets],
            ways,
            policy,
            partition: None,
            stats: CacheStats::default(),
            time: 0,
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Installs a static way partition.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        if let Some(p) = &partition {
            p.validate(self.ways);
        }
        self.partition = partition;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Accesses performed so far (the policy time base).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The set index of a key: plain remainder, the definitional form of
    /// the production mask-based `CacheConfig::set_of`.
    pub fn set_of(&self, key: u64) -> usize {
        (key % self.sets.len() as u64) as usize
    }

    fn find_way(&self, set: usize, key: u64) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.key == key))
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: u64) -> bool {
        let set = self.set_of(key);
        self.find_way(set, key).is_some()
    }

    /// The resident line for `key`, if any.
    pub fn line(&self, key: u64) -> Option<&Line> {
        let set = self.set_of(key);
        let way = self.find_way(set, key)?;
        self.sets[set][way].as_ref()
    }

    /// Accesses `key`, allocating on miss.
    pub fn access_with(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        partition_override: Option<&Partition>,
    ) -> SpecAccessResult {
        let ways = self.allowed_ways(kind, partition_override);
        self.access_in_ways(key, kind, write, ways)
    }

    /// Accesses `key` with fills confined to the way range `ways` (hits
    /// are range-unrestricted, matching the production per-tenant split).
    pub fn access_in_ways(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        ways: (usize, usize),
    ) -> SpecAccessResult {
        let t = self.time;
        self.time += 1;
        self.policy.begin_access(t, key);
        let set = self.set_of(key);

        if let Some(way) = self.find_way(set, key) {
            {
                let line = self.sets[set][way].as_mut().expect("resident line");
                line.last_at = t;
                if write {
                    line.dirty = true;
                }
            }
            self.policy.on_hit(set, way, t, kind);
            self.stats.record_access(kind, true);
            return SpecAccessResult {
                hit: true,
                evicted: None,
            };
        }

        self.stats.record_access(kind, false);
        let mut new_line = Line::filled(key, kind, t);
        new_line.dirty = write;
        let evicted = self.fill(set, new_line, ways);
        SpecAccessResult {
            hit: false,
            evicted,
        }
    }

    /// Probes without allocating or advancing time.
    pub fn probe(&mut self, key: u64, kind: BlockKind) -> bool {
        let set = self.set_of(key);
        let hit = self.find_way(set, key).is_some();
        self.stats.record_access(kind, hit);
        hit
    }

    /// Hit path of a partial write (the production fused
    /// `access_mark_valid`): a write hit followed by marking `slot` valid,
    /// with the policy observing the line *before* the new bit lands.
    /// `None` (and no state change) when `key` is not resident.
    pub fn access_mark_valid(&mut self, key: u64, kind: BlockKind, slot: u8) -> Option<u8> {
        assert!(slot < 8, "sub-block slot {slot} out of range");
        let set = self.set_of(key);
        let way = self.find_way(set, key)?;
        let t = self.time;
        self.time += 1;
        self.policy.begin_access(t, key);
        {
            let line = self.sets[set][way].as_mut().expect("resident line");
            line.last_at = t;
            line.dirty = true;
        }
        self.policy.on_hit(set, way, t, kind);
        self.stats.record_access(kind, true);
        let line = self.sets[set][way].as_mut().expect("resident line");
        line.valid_mask |= 1 << slot;
        Some(line.valid_mask)
    }

    /// Marks a sub-entry valid on a resident line (no time advance).
    pub fn mark_valid(&mut self, key: u64, slot: u8) -> Option<u8> {
        assert!(slot < 8, "sub-block slot {slot} out of range");
        let set = self.set_of(key);
        let way = self.find_way(set, key)?;
        let line = self.sets[set][way].as_mut()?;
        line.valid_mask |= 1 << slot;
        line.dirty = true;
        Some(line.valid_mask)
    }

    /// Inserts a partial-write placeholder (miss path; key must not be
    /// resident). Does not advance time.
    pub fn insert_placeholder(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        partition_override: Option<&Partition>,
    ) -> Option<Line> {
        let ways = self.allowed_ways(kind, partition_override);
        self.insert_placeholder_in_ways(key, kind, slot, ways)
    }

    /// [`insert_placeholder`](Self::insert_placeholder) with the fill
    /// confined to the way range `ways`.
    pub fn insert_placeholder_in_ways(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        ways: (usize, usize),
    ) -> Option<Line> {
        let set = self.set_of(key);
        assert!(
            self.find_way(set, key).is_none(),
            "placeholder insert for resident key {key}"
        );
        let t = self.time;
        self.fill(set, Line::placeholder(key, kind, t, slot), ways)
    }

    /// Drains every resident line in frame order (set-major).
    pub fn drain(&mut self) -> Vec<Line> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for frame in set.iter_mut() {
                if let Some(line) = frame.take() {
                    out.push(line);
                }
            }
        }
        out
    }

    /// Iterates over resident lines in frame order.
    pub fn resident_lines(&self) -> impl Iterator<Item = &Line> {
        self.sets.iter().flatten().filter_map(Option::as_ref)
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.resident_lines().count()
    }

    fn allowed_ways(
        &self,
        kind: BlockKind,
        partition_override: Option<&Partition>,
    ) -> (usize, usize) {
        match partition_override.or(self.partition.as_ref()) {
            Some(p) => p.ways_for(kind, self.ways),
            None => (0, self.ways),
        }
    }

    fn fill(&mut self, set: usize, new_line: Line, (lo, hi): (usize, usize)) -> Option<Line> {
        if let Some(way) = (lo..hi).find(|&w| self.sets[set][w].is_none()) {
            self.sets[set][way] = Some(new_line);
            self.policy.on_fill(set, way, &new_line);
            return None;
        }

        let candidates: Vec<usize> = (lo..hi).collect();
        let way = self.policy.choose_victim(
            set,
            &candidates,
            &maps_cache::SetView::from_slice(&self.sets[set]),
            self.time,
        );
        assert!((lo..hi).contains(&way), "policy chose non-candidate way");
        let victim = self.sets[set][way].take().expect("victim line");
        self.policy.on_evict(set, way, &victim, self.time);
        self.stats.record_eviction(victim.kind, victim.dirty);
        self.sets[set][way] = Some(new_line);
        self.policy.on_fill(set, way, &new_line);
        Some(victim)
    }
}

/// One occupied frame of the naive randomized cache.
#[derive(Debug, Clone, Copy)]
struct SpecFrame {
    line: Line,
    owner: u8,
    /// The tag slot pointing at this frame.
    slot: usize,
}

/// The deliberately slow MIRAGE-style randomized cache: `Option`-per-slot
/// tag store, `Option`-per-frame data store, and tenant occupancy found
/// by scanning frames instead of a ledger. Shares [`keyed_index`],
/// [`derive_keys`], and the RNG stream with production, and re-implements
/// the one-draw install decision procedure (tag conflict → quota
/// eviction → global eviction); the differential suite holds the two
/// bit-equal.
#[derive(Debug)]
pub struct SpecRandomizedCache {
    ways: usize,
    sets: usize,
    seeds: [u64; SKEWS],
    rng: SmallRng,
    /// `SKEWS * sets` sets of `ways` slots, each holding a resident key
    /// and the frame it points to.
    tags: Vec<Vec<Option<(u64, usize)>>>,
    frames: Vec<Option<SpecFrame>>,
    /// Free-frame stack, same LIFO order as production (pops ascend).
    free: Vec<usize>,
    quota: Option<usize>,
    stats: CacheStats,
    time: u64,
}

impl SpecRandomizedCache {
    /// Creates the cache (same geometry contract as production:
    /// `size_bytes` a positive multiple of `ways * 64`).
    pub fn new(size_bytes: u64, ways: usize, seed: u64) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert_eq!(size_bytes % (ways as u64 * BLOCK_BYTES), 0);
        let capacity = (size_bytes / BLOCK_BYTES) as usize;
        assert!(capacity > 0, "cache must have at least one frame");
        let sets = capacity.div_ceil(ways).next_power_of_two();
        let (seeds, rng_seed) = derive_keys(seed);
        Self {
            ways,
            sets,
            seeds,
            rng: SmallRng::seed_from_u64(rng_seed),
            tags: vec![vec![None; ways]; SKEWS * sets],
            frames: vec![None; capacity],
            free: (0..capacity).rev().collect(),
            quota: None,
            stats: CacheStats::default(),
            time: 0,
        }
    }

    /// Installs a per-tenant frame quota of `capacity / tenants` frames
    /// (minimum one).
    pub fn set_tenant_quota(&mut self, tenants: usize) {
        assert!(tenants >= 1, "tenant count must be positive");
        self.quota = Some((self.frames.len() / tenants).max(1));
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Accesses performed so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.frames.iter().flatten().count()
    }

    /// Live frames owned by `tenant`, by definition: a scan.
    pub fn tenant_occupancy(&self, tenant: u8) -> u64 {
        self.frames
            .iter()
            .flatten()
            .filter(|f| f.owner == tenant)
            .count() as u64
    }

    /// The set index of `key` in `skew`.
    fn set_of(&self, skew: usize, key: u64) -> usize {
        skew * self.sets + keyed_index(self.seeds[skew], key, self.sets)
    }

    /// Finds `key`'s tag slot `(set, way)` and frame, skew 0 first.
    fn locate(&self, key: u64) -> Option<(usize, usize, usize)> {
        for skew in 0..SKEWS {
            let set = self.set_of(skew, key);
            for (way, slot) in self.tags[set].iter().enumerate() {
                if let Some((k, frame)) = slot {
                    if *k == key {
                        return Some((set, way, *frame));
                    }
                }
            }
        }
        None
    }

    /// The resident line for `key`, if any.
    pub fn line(&self, key: u64) -> Option<&Line> {
        let (_, _, frame) = self.locate(key)?;
        self.frames[frame].as_ref().map(|f| &f.line)
    }

    /// Accesses `key` as `tenant`, allocating on miss.
    pub fn access(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: u8,
    ) -> SpecAccessResult {
        let t = self.time;
        self.time += 1;
        if let Some((_, _, frame)) = self.locate(key) {
            let line = &mut self.frames[frame].as_mut().expect("resident frame").line;
            line.last_at = t;
            if write {
                line.dirty = true;
            }
            self.stats.record_access(kind, true);
            return SpecAccessResult {
                hit: true,
                evicted: None,
            };
        }
        self.stats.record_access(kind, false);
        let mut new_line = Line::filled(key, kind, t);
        new_line.dirty = write;
        let evicted = self.install(new_line, tenant);
        SpecAccessResult {
            hit: false,
            evicted,
        }
    }

    /// Probes without allocating or refreshing recency.
    pub fn probe(&mut self, key: u64, kind: BlockKind) -> bool {
        let hit = self.locate(key).is_some();
        self.stats.record_access(kind, hit);
        hit
    }

    /// Hit path of a partial write (fused write-hit + mark-valid).
    pub fn access_mark_valid(&mut self, key: u64, kind: BlockKind, slot: u8) -> Option<u8> {
        assert!(slot < 8, "sub-block slot {slot} out of range");
        let (_, _, frame) = self.locate(key)?;
        let t = self.time;
        self.time += 1;
        let line = &mut self.frames[frame].as_mut().expect("resident frame").line;
        line.last_at = t;
        line.dirty = true;
        self.stats.record_access(kind, true);
        line.valid_mask |= 1 << slot;
        Some(line.valid_mask)
    }

    /// Marks a sub-entry valid on a resident line (no time advance).
    pub fn mark_valid(&mut self, key: u64, slot: u8) -> Option<u8> {
        assert!(slot < 8, "sub-block slot {slot} out of range");
        let (_, _, frame) = self.locate(key)?;
        let line = &mut self.frames[frame].as_mut().expect("resident frame").line;
        line.valid_mask |= 1 << slot;
        line.dirty = true;
        Some(line.valid_mask)
    }

    /// Inserts a partial-write placeholder (key must not be resident).
    pub fn insert_placeholder(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: u8,
    ) -> Option<Line> {
        assert!(
            self.locate(key).is_none(),
            "placeholder insert for resident key {key}"
        );
        let t = self.time;
        self.install(Line::placeholder(key, kind, t, slot), tenant)
    }

    /// Drains every resident line in frame order, resetting the free
    /// list to its initial order.
    pub fn drain(&mut self) -> Vec<Line> {
        let mut out = Vec::new();
        for frame in self.frames.iter_mut() {
            if let Some(f) = frame.take() {
                self.tags[f.slot / self.ways][f.slot % self.ways] = None;
                out.push(f.line);
            }
        }
        self.free = (0..self.frames.len()).rev().collect();
        out
    }

    /// Iterates over resident lines in frame order.
    pub fn resident_lines(&self) -> impl Iterator<Item = &Line> {
        self.frames.iter().flatten().map(|f| &f.line)
    }

    /// Frees `frame`, clearing its tag slot and returning the line.
    fn evict_frame(&mut self, frame: usize) -> Line {
        let f = self.frames[frame].take().expect("evicting a free frame");
        self.tags[f.slot / self.ways][f.slot % self.ways] = None;
        self.free.push(frame);
        f.line
    }

    /// The install decision procedure, restated: one victim and one RNG
    /// draw at most, in production's order (see
    /// `maps_cache::RandomizedCache::install`).
    fn install(&mut self, new_line: Line, tenant: u8) -> Option<Line> {
        let mut victim = None;

        // 1. Tag slot: both candidate sets full is a tag conflict (one
        //    draw over skew 0's slots then skew 1's); otherwise the skew
        //    with more empties wins, tie to skew 0, first empty slot.
        let sets = [self.set_of(0, new_line.key), self.set_of(1, new_line.key)];
        let empties: Vec<usize> = sets
            .iter()
            .map(|&s| self.tags[s].iter().filter(|w| w.is_none()).count())
            .collect();
        let (set, way) = if empties.iter().all(|&e| e == 0) {
            let r = self.rng.gen_range(0..SKEWS * self.ways);
            let (set, way) = (sets[r / self.ways], r % self.ways);
            let (_, frame) = self.tags[set][way].expect("conflicting slot is full");
            victim = Some(self.evict_frame(frame));
            (set, way)
        } else {
            let skew = usize::from(empties[1] > empties[0]);
            let way = self.tags[sets[skew]]
                .iter()
                .position(Option::is_none)
                .expect("skew with empties has an empty slot");
            (sets[skew], way)
        };

        // 2. Frame: quota eviction, else global random when full.
        if victim.is_none() {
            let over_quota = self
                .quota
                .is_some_and(|q| self.tenant_occupancy(tenant) >= q as u64);
            if over_quota {
                let count = self.tenant_occupancy(tenant);
                let r = self.rng.gen_range(0..count);
                let frame = self
                    .frames
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.as_ref().is_some_and(|f| f.owner == tenant))
                    .map(|(i, _)| i)
                    .nth(r as usize)
                    .expect("tenant occupancy miscounted");
                victim = Some(self.evict_frame(frame));
            } else if self.free.is_empty() {
                let f = self.rng.gen_range(0..self.frames.len());
                victim = Some(self.evict_frame(f));
            }
        }

        let frame = self.free.pop().expect("free list empty after eviction");
        let slot = set * self.ways + way;
        self.frames[frame] = Some(SpecFrame {
            line: new_line,
            owner: tenant,
            slot,
        });
        self.tags[set][way] = Some((new_line.key, frame));
        if let Some(v) = &victim {
            self.stats.record_eviction(v.kind, v.dirty);
        }
        victim
    }
}

/// The pluggable naive cache core (restating `maps_sim`'s backend enum).
/// The variants' sizes differ, but exactly one backend exists per run,
/// so boxing would only add indirection to the spec.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SpecBackend {
    Set(SpecCache),
    Rand(SpecRandomizedCache),
}

/// Element-wise `now - before` over the raw stats buckets.
fn stats_delta(now: &CacheStats, before: &CacheStats) -> CacheStats {
    let mut out = *now.buckets();
    for (o, b) in out.iter_mut().zip(before.buckets()) {
        o.accesses -= b.accesses;
        o.hits -= b.hits;
        o.misses -= b.misses;
        o.evictions -= b.evictions;
        o.writebacks -= b.writebacks;
    }
    CacheStats::from_buckets(out)
}

/// Per-tenant attribution by definition: whatever one call changed in the
/// global stats is the requester's, and a resident line belongs to the
/// tenant whose call last installed it.
#[derive(Debug, Default)]
struct SpecTenantLedger {
    stats: BTreeMap<u8, CacheStats>,
    /// Resident key -> the tenant whose call installed it.
    owner: BTreeMap<u64, u8>,
}

impl SpecTenantLedger {
    /// Books one call: the stats delta `before -> now` to `tenant`, the
    /// victim (if any) out of the owner map, and an admitted miss's
    /// install into it.
    fn attribute(
        &mut self,
        key: u64,
        tenant: u8,
        before: &CacheStats,
        now: &CacheStats,
        out: &SpecMdOutcome,
    ) {
        self.stats
            .entry(tenant)
            .or_default()
            .accumulate(&stats_delta(now, before));
        if let Some(victim) = &out.evicted {
            self.owner.remove(&victim.key);
        }
        if !out.hit && !out.bypassed {
            self.owner.insert(key, tenant);
        }
    }

    fn occupancy(&self, tenant: u8) -> u64 {
        self.owner.values().filter(|&&t| t == tenant).count() as u64
    }
}

/// The naive metadata cache: [`SpecCache`] or [`SpecRandomizedCache`]
/// plus contents admission, partial writes, the (shared) set-dueling
/// controller, the per-tenant way split, and per-tenant attribution,
/// restating `maps_sim::MetadataCache`.
#[derive(Debug)]
pub struct SpecMetadataCache {
    backend: SpecBackend,
    contents: CacheContents,
    partial_writes: bool,
    dueling: Option<DuelingController>,
    tenant_split: Option<TenantPartition>,
    ways: usize,
    ledger: SpecTenantLedger,
}

impl SpecMetadataCache {
    /// Builds the cache, or `None` when the configuration disables it.
    pub fn new(cfg: &MdcConfig) -> Option<Self> {
        if cfg.size_bytes == 0 {
            return None;
        }
        let mut dueling = None;
        let mut tenant_split = None;
        let backend = match cfg.design {
            MdcDesign::SetAssoc => {
                // Definitional geometry: capacity / (ways * 64 B lines) sets.
                let sets = (cfg.size_bytes / (cfg.ways as u64 * 64)) as usize;
                assert!(sets > 0, "metadata cache smaller than one set");
                let mut cache = SpecCache::new(sets, cfg.ways, cfg.policy.build());
                match cfg.partition {
                    PartitionMode::None => {}
                    PartitionMode::Static(p) => cache.set_partition(Some(p)),
                    PartitionMode::Dynamic {
                        a,
                        b,
                        leaders_per_side,
                    } => {
                        dueling = Some(DuelingController::new(
                            sets,
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
                SpecBackend::Set(cache)
            }
            MdcDesign::Randomized { seed } => {
                let mut cache = SpecRandomizedCache::new(cfg.size_bytes, cfg.ways, seed);
                if let PartitionMode::PerTenant { tenants } = cfg.partition {
                    cache.set_tenant_quota(tenants);
                }
                SpecBackend::Rand(cache)
            }
        };
        Some(Self {
            backend,
            contents: cfg.contents,
            partial_writes: cfg.partial_writes,
            dueling,
            tenant_split,
            ways: cfg.ways,
            ledger: SpecTenantLedger::default(),
        })
    }

    /// Which metadata types this cache admits.
    pub fn contents(&self) -> CacheContents {
        self.contents
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        match &self.backend {
            SpecBackend::Set(c) => c.stats(),
            SpecBackend::Rand(c) => c.stats(),
        }
    }

    /// Resets statistics after warm-up (line ownership persists).
    pub fn reset_stats(&mut self) {
        match &mut self.backend {
            SpecBackend::Set(c) => c.reset_stats(),
            SpecBackend::Rand(c) => c.reset_stats(),
        }
        self.ledger.stats.clear();
    }

    /// Stats attributed to `tenant` since the last reset.
    pub fn tenant_stats(&self, tenant: u8) -> CacheStats {
        self.ledger.stats.get(&tenant).copied().unwrap_or_default()
    }

    /// Resident lines installed by `tenant`'s calls.
    pub fn tenant_occupancy(&self, tenant: u8) -> u64 {
        self.ledger.occupancy(tenant)
    }

    /// Tenants with attributed accesses or resident lines, ascending.
    pub fn tenants(&self) -> Vec<u8> {
        (0..=u8::MAX)
            .filter(|&t| {
                self.tenant_stats(t).total().accesses != 0 || self.tenant_occupancy(t) != 0
            })
            .collect()
    }

    fn probe_backend(&mut self, key: u64, kind: BlockKind) -> bool {
        match &mut self.backend {
            SpecBackend::Set(c) => c.probe(key, kind),
            SpecBackend::Rand(c) => c.probe(key, kind),
        }
    }

    /// Accesses a metadata block as `tenant`; non-admitted kinds probe
    /// only.
    pub fn access(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: TenantId,
    ) -> SpecMdOutcome {
        let before = *self.stats();
        let out = self.access_unattributed(key, kind, write, tenant);
        let now = *self.stats();
        self.ledger.attribute(key, tenant.0, &before, &now, &out);
        out
    }

    /// Write of a single 8 B sub-entry as `tenant`.
    pub fn write_partial(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
    ) -> SpecMdOutcome {
        let before = *self.stats();
        let out = self.write_partial_unattributed(key, kind, slot, tenant);
        let now = *self.stats();
        self.ledger.attribute(key, tenant.0, &before, &now, &out);
        out
    }

    fn access_unattributed(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: TenantId,
    ) -> SpecMdOutcome {
        if !self.contents.admits(kind) {
            let hit = self.probe_backend(key, kind);
            return SpecMdOutcome {
                hit,
                evicted: None,
                bypassed: true,
            };
        }
        let r = match &mut self.backend {
            SpecBackend::Set(cache) => {
                if let Some(split) = &self.tenant_split {
                    cache.access_in_ways(key, kind, write, split.ways_for(tenant.0, self.ways))
                } else if self.dueling.is_some() {
                    let set = cache.set_of(key);
                    let partition = self.dueling.as_ref().map(|d| d.partition_for(set));
                    let r = cache.access_with(key, kind, write, partition.as_ref());
                    if !r.hit {
                        if let Some(d) = &mut self.dueling {
                            d.record_miss(set);
                        }
                    }
                    r
                } else {
                    cache.access_with(key, kind, write, None)
                }
            }
            SpecBackend::Rand(cache) => cache.access(key, kind, write, tenant.0),
        };
        SpecMdOutcome {
            hit: r.hit,
            evicted: r.evicted,
            bypassed: false,
        }
    }

    fn write_partial_unattributed(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
    ) -> SpecMdOutcome {
        if !self.contents.admits(kind) {
            let hit = self.probe_backend(key, kind);
            return SpecMdOutcome {
                hit,
                evicted: None,
                bypassed: true,
            };
        }
        let resident = match &mut self.backend {
            SpecBackend::Set(c) => c.access_mark_valid(key, kind, slot).is_some(),
            SpecBackend::Rand(c) => c.access_mark_valid(key, kind, slot).is_some(),
        };
        if resident {
            return SpecMdOutcome {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }
        if !self.partial_writes {
            return self.access_unattributed(key, kind, true, tenant);
        }
        let evicted = match &mut self.backend {
            SpecBackend::Set(cache) => {
                let set = cache.set_of(key);
                let partition = self.dueling.as_ref().map(|d| d.partition_for(set));
                cache.probe(key, kind);
                if let Some(d) = &mut self.dueling {
                    d.record_miss(set);
                }
                if let Some(split) = &self.tenant_split {
                    cache.insert_placeholder_in_ways(
                        key,
                        kind,
                        slot,
                        split.ways_for(tenant.0, self.ways),
                    )
                } else {
                    cache.insert_placeholder(key, kind, slot, partition.as_ref())
                }
            }
            SpecBackend::Rand(cache) => {
                cache.probe(key, kind);
                cache.insert_placeholder(key, kind, slot, tenant.0)
            }
        };
        SpecMdOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Valid mask of a resident line, if any.
    pub fn valid_mask(&self, key: u64) -> Option<u8> {
        match &self.backend {
            SpecBackend::Set(c) => c.line(key).map(|l| l.valid_mask),
            SpecBackend::Rand(c) => c.line(key).map(|l| l.valid_mask),
        }
    }

    /// Marks a resident line fully valid.
    pub fn complete_line(&mut self, key: u64) {
        for slot in 0..8 {
            let marked = match &mut self.backend {
                SpecBackend::Set(c) => c.mark_valid(key, slot),
                SpecBackend::Rand(c) => c.mark_valid(key, slot),
            };
            if marked.is_none() {
                break;
            }
        }
    }

    /// Drains all resident lines (no tenant owns anything afterwards).
    pub fn drain(&mut self) -> Vec<Line> {
        self.ledger.owner.clear();
        match &mut self.backend {
            SpecBackend::Set(c) => c.drain(),
            SpecBackend::Rand(c) => c.drain(),
        }
    }

    /// Iterates over resident lines in frame order.
    pub fn resident_lines(&self) -> Box<dyn Iterator<Item = &Line> + '_> {
        match &self.backend {
            SpecBackend::Set(c) => Box::new(c.resident_lines()),
            SpecBackend::Rand(c) => Box::new(c.resident_lines()),
        }
    }

    /// The inner cache's access counter.
    pub fn time(&self) -> u64 {
        match &self.backend {
            SpecBackend::Set(c) => c.time(),
            SpecBackend::Rand(c) => c.time(),
        }
    }
}
