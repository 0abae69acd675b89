//! The flat-array cache against a reference true-LRU model.
//!
//! `Cache` keeps one `sets × ways` tag array and answers a repeat of the
//! previous line without a search. The reference below keeps each set as
//! its own most-recent-first list and searches on every access; the two
//! must agree on hit or miss for every access of every stream.

use hlo_sim::{Cache, CacheConfig};
use proptest::prelude::*;

/// Per set: line tags, most recent first.
struct RefLru {
    line_bytes: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
}

impl RefLru {
    fn new(cfg: CacheConfig) -> Self {
        RefLru {
            line_bytes: cfg.line_bytes,
            ways: cfg.ways as usize,
            sets: vec![Vec::new(); cfg.sets() as usize],
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        let tag = line / n;
        let hit = match set.iter().position(|&t| t == tag) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => {
                set.truncate(self.ways - 1);
                false
            }
        };
        set.insert(0, tag);
        hit
    }
}

fn geometries() -> [CacheConfig; 4] {
    let cfg = |size_bytes, line_bytes, ways| CacheConfig {
        size_bytes,
        line_bytes,
        ways,
    };
    [
        // The default machine's caches.
        cfg(32 * 1024, 32, 4),
        // Figure 7's I-cache and D-cache.
        cfg(1024, 32, 2),
        cfg(2048, 32, 2),
        // Five sets of three ways: set selection by a non-power-of-two
        // modulus.
        cfg(5 * 3 * 16, 16, 3),
    ]
}

/// A line pool size and steps `(kind, value)`. Kinds 0–1 touch a line
/// from the pool (reuse and conflicts; a pool smaller than the cache
/// leaves sets partially filled), 2 repeats the previous line at another
/// offset (the same-line shortcut), 3 reaches anywhere.
fn stream() -> impl Strategy<Value = (u64, Vec<(u8, u64)>)> {
    (
        1u64..600,
        prop::collection::vec((0u8..4, any::<u64>()), 0..400),
    )
}

/// Expands a stream into addresses for a cache with `line_bytes` lines.
fn addresses(pool: u64, steps: &[(u8, u64)], line_bytes: u64) -> Vec<u64> {
    let mut prev = 0u64;
    steps
        .iter()
        .map(|&(kind, v)| {
            let addr = match kind {
                0 | 1 => (v % pool) * line_bytes + v % line_bytes,
                2 => prev - prev % line_bytes + v % line_bytes,
                _ => v / 4,
            };
            prev = addr;
            addr
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_cache_matches_reference_lru(s in stream()) {
        let (pool, steps) = s;
        for cfg in geometries() {
            let mut cache = Cache::new(cfg);
            let mut reference = RefLru::new(cfg);
            let mut misses = 0;
            for (i, addr) in addresses(pool, &steps, cfg.line_bytes).into_iter().enumerate() {
                let want = reference.access(addr);
                prop_assert_eq!(cache.access(addr), want);
                misses += u64::from(!want);
                prop_assert!(
                    cache.misses() == misses && cache.accesses() == i as u64 + 1,
                    "{:?}: counters after access {} of {:#x}",
                    cfg,
                    i,
                    addr
                );
            }
        }
    }
}
