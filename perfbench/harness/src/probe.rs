//! Host-speed probe: a fixed piece of work, independent of the
//! repository's crates, timed on a worker right after each point.
//!
//! The shared host's speed drifts by a third over minutes, and it moves
//! every time the benchmark measures. The probe runs under the same drift
//! at the same moments as the points, so `run.py` can express each
//! process's times at a reference speed: measured time × reference probe
//! time / the process's median probe time. The work is ordinary library
//! code (hash map, ordered map, sort), because branchy, cache-missing
//! code like the simulator's slows with the host more than a tight
//! arithmetic loop does. Nothing here calls the simulator, so a change to
//! the simulator moves the points and not the probe. The work runs once
//! untimed before it is timed: a point evicts the probe's maps from the
//! caches, and the first run after it (about a third slower) would charge
//! the probe for a refill whose size is set by the simulator's footprint.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Keys the hash map draws from; it settles at about half of them.
const MAP_KEYS: u64 = 1 << 15;
/// Keys the ordered map draws from.
const TREE_KEYS: u64 = 1 << 13;
/// Map operations per probe.
const OPS: usize = 1024;
/// Values sorted per probe.
const SORTED: usize = 2048;

/// One worker's probe state: it persists between probes, so every probe
/// after the first meets maps of the same (settled) size.
struct Probe {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    tree: BTreeMap<u64, u64>,
    values: Vec<u64>,
    x: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    fn new() -> Self {
        let mut probe = Probe {
            map: HashMap::default(),
            tree: BTreeMap::new(),
            values: vec![0; SORTED],
            x: 0x9E37_79B9_7F4A_7C15,
        };
        // Fill the maps to the size the probe keeps them at.
        for k in (0..MAP_KEYS).step_by(2) {
            probe.map.insert(k, k);
        }
        for k in 0..TREE_KEYS {
            probe.tree.insert(k, k);
        }
        probe
    }

    /// The fixed work; returns a value that depends on all of it.
    fn work(&mut self) -> u64 {
        let mut x = self.x;
        let mut acc = 0u64;
        for _ in 0..OPS {
            let k = xorshift(&mut x) % MAP_KEYS;
            match self.map.remove(&k) {
                Some(v) => acc = acc.wrapping_add(v),
                None => {
                    self.map.insert(k, x);
                }
            }
            let t = xorshift(&mut x) % TREE_KEYS;
            if let Some((_, v)) = self.tree.range(t..).next() {
                acc = acc.wrapping_add(*v);
            }
            self.tree.insert(t, x);
        }
        for v in self.values.iter_mut() {
            *v = xorshift(&mut x);
        }
        self.values.sort_unstable();
        self.x = x;
        acc ^ self.values.first().copied().unwrap_or(0)
    }
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Runs the probe once untimed (to refill the caches), then once timed,
/// on this thread, and returns the timed run's host nanoseconds. A
/// thread's first call also builds its probe state, outside the timing.
pub fn probe_ns() -> f64 {
    PROBE.with(|cell| {
        let mut cell = cell.borrow_mut();
        let probe = cell.get_or_insert_with(Probe::new);
        std::hint::black_box(probe.work());
        let start = Instant::now();
        std::hint::black_box(probe.work());
        start.elapsed().as_secs_f64() * 1e9
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic_and_keeps_the_maps_settled() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        for _ in 0..50 {
            assert_eq!(a.work(), b.work());
        }
        let half = MAP_KEYS as usize / 2;
        assert!(a.map.len().abs_diff(half) < half / 10, "map size {}", a.map.len());
        assert_eq!(a.tree.len(), TREE_KEYS as usize);
    }

    #[test]
    fn probe_reports_a_positive_time() {
        assert!(probe_ns() > 0.0);
        assert!(probe_ns() > 0.0);
    }
}
