//! Set-associative LRU caches.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes: a power of two, at least 2 (the cache keeps
    /// `u64::MAX` free to mark invalid ways, and 1-byte lines would let a
    /// line number reach it).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly or is zero-sized, or
    /// if lines are not a power of two of at least 2 bytes.
    pub fn sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size power of two");
        // A line number is then below `u64::MAX`, which stays free for
        // `EMPTY`.
        assert!(self.line_bytes >= 2, "line size at least 2 bytes");
        assert!(self.ways > 0 && self.size_bytes > 0);
        let sets = self.size_bytes / (self.line_bytes * self.ways as u64);
        assert!(sets > 0, "cache too small for its ways and line size");
        sets
    }
}

/// Marks an invalid way (and "no line yet" in `Cache::last_line`).
const EMPTY: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets × ways` line numbers, each set's ways most recent first;
    /// invalid ways are `EMPTY` and sit after the valid ones. A set only
    /// holds lines whose number maps to it, so the full line number
    /// compares like a tag.
    tags: Vec<u64>,
    /// The line of the previous access, which is the MRU way of its set.
    last_line: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![EMPTY; sets as usize * cfg.ways as usize],
            last_line: EMPTY,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns true on hit. Misses allocate (for both
    /// reads and writes: write-allocate, which is what the PA8000's data
    /// cache did).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        // The previous access left its line MRU in its set and touched
        // no other set, so a repeat is a hit that changes no state.
        if line == self.last_line {
            return true;
        }
        self.last_line = line;
        let n = self.cfg.ways as usize;
        let first = (line % self.sets) as usize * n;
        let ways = &mut self.tags[first..first + n];
        let (pos, hit) = match ways.iter().position(|&t| t == line) {
            Some(pos) => (pos, true),
            None => {
                // Evict the LRU way (or drop an `EMPTY` one).
                self.misses += 1;
                (n - 1, false)
            }
        };
        ways.copy_within(0..pos, 1);
        ways[0] = line;
        hit
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss fraction in `[0, 1]` (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(8)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // set 0 lines: line numbers even (line%2==0): addresses 0, 32, 64
        assert!(!c.access(0)); // A
        assert!(!c.access(32)); // B  (set full)
        assert!(c.access(0)); // A again (A MRU)
        assert!(!c.access(64)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(32)); // B was evicted
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        assert!(!c.access(0)); // set 0
        assert!(!c.access(16)); // set 1
        assert!(c.access(0));
        assert!(c.access(16));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert_eq!(c.miss_rate(), 0.5);
        assert_eq!(Cache::new(c.cfg).miss_rate(), 0.0);
    }

    #[test]
    fn hits_plus_misses_equal_accesses() {
        let mut c = tiny();
        let addrs = [0u64, 8, 16, 48, 96, 128, 0, 8, 200, 16];
        let mut hits = 0;
        for &a in &addrs {
            if c.access(a) {
                hits += 1;
            }
        }
        assert_eq!(hits + c.misses(), c.accesses());
    }

    #[test]
    #[should_panic(expected = "line size at least 2 bytes")]
    fn one_byte_lines_panic() {
        // A 1-byte line number could equal the `EMPTY` sentinel.
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 1,
            ways: 2,
        });
    }

    #[test]
    #[should_panic(expected = "cache too small")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 16,
            line_bytes: 16,
            ways: 2,
        });
    }
}
