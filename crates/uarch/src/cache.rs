//! Generic set-associative cache timing model.
//!
//! The cache tracks tags and true-LRU replacement only — data always lives
//! in the simulator's backing memory (`tracefill_isa::mem::Memory`); the
//! cache model answers "would this access have hit?".
//!
//! A way is a tag and a last-use stamp, kept in two parallel arrays. The
//! clock ticks before every access, so a resident way's stamp is at least
//! 1 and a stamp of 0 marks an empty way: all-zero arrays are an empty
//! cache. [`SetAssocCache::new`] therefore takes zeroed allocations, which
//! the allocator may serve from fresh zero pages without writing them
//! (the paper's 1 MiB L2 has 16,384 ways), and [`SetAssocCache::flush`]
//! swaps in a zeroed stamp array. A miss replaces the first empty way of
//! its set, else the least recently used one.

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways * line_bytes`, or non-power-of-two sets/line size).
    pub fn sets(&self) -> u32 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^n");
        let per_way = self.bytes / self.ways;
        assert_eq!(
            per_way % self.line_bytes,
            0,
            "capacity {} not divisible by ways {} x line {}",
            self.bytes,
            self.ways,
            self.line_bytes
        );
        let sets = per_way / self.line_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Running hit/miss counters for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and allocated).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of accesses that hit, or 1.0 with no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use tracefill_uarch::cache::{CacheConfig, SetAssocCache};
///
/// // A tiny 2-way cache with two 16-byte lines per way.
/// let mut c = SetAssocCache::new(CacheConfig { bytes: 64, ways: 2, line_bytes: 16 });
/// assert!(!c.access(0x100));     // cold miss
/// assert!(c.access(0x104));      // same line
/// assert!(!c.access(0x200));     // other way of the same set
/// assert!(c.access(0x100));      // still resident
/// assert!(!c.access(0x300));     // evicts LRU (0x200)
/// assert!(!c.access(0x200));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// The tag of each way, meaningful only where its stamp is nonzero.
    tags: Vec<u32>,
    /// The clock at each way's last use (higher = more recently used);
    /// 0 for an empty way.
    stamps: Vec<u64>,
    sets: u32,
    set_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> SetAssocCache {
        let sets = config.sets();
        let ways = (sets * config.ways) as usize;
        SetAssocCache {
            config,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            sets,
            set_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: u32) -> (usize, u32) {
        let line_addr = addr >> self.set_shift;
        let set = line_addr & (self.sets - 1);
        let tag = line_addr >> self.sets.trailing_zeros();
        (set as usize, tag)
    }

    /// The index range of the ways of `set`.
    fn set_ways(&self, set: usize) -> std::ops::Range<usize> {
        let w = self.config.ways as usize;
        set * w..(set + 1) * w
    }

    /// The way of `set` holding `tag`, if one does.
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
        let ways = self.set_ways(set);
        let start = ways.start;
        self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .position(|(&t, &stamp)| stamp != 0 && t == tag)
            .map(|i| start + i)
    }

    /// Looks up `addr` without modifying cache state.
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).is_some()
    }

    /// Accesses `addr`: updates LRU, allocates on a miss, and returns
    /// whether it hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            self.stamps[way] = self.clock;
            self.stats.hits += 1;
            return true;
        }
        // Miss: replace the first empty way, else the least recently used
        // one. Empty ways stamp 0 and stamps of resident ways are distinct,
        // so the first minimum is exactly that way.
        let ways = self.set_ways(set);
        let victim = ways.start
            + self.stamps[ways]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .expect("cache set cannot be empty")
                .0;
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        self.stats.misses += 1;
        false
    }

    /// Invalidates every line (e.g. across a serializing boundary in tests).
    pub fn flush(&mut self) {
        self.stamps = vec![0; self.stamps.len()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            bytes: 128,
            ways: 2,
            line_bytes: 16,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().sets, 4);
        let paper_tc_icache = CacheConfig {
            bytes: 4 * 1024,
            ways: 4,
            line_bytes: 64,
        };
        assert_eq!(paper_tc_icache.sets(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        SetAssocCache::new(CacheConfig {
            bytes: 96,
            ways: 2,
            line_bytes: 16,
        });
    }

    #[test]
    fn lru_is_exact() {
        let mut c = tiny(); // 4 sets, 2 ways
                            // Three lines mapping to set 0 (stride = sets * line = 64).
        let (a, b, d) = (0u32, 64, 128);
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        assert!(c.probe(0));
        let before = c.stats();
        assert!(!c.probe(128));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.probe(0));
    }

    #[test]
    fn hit_rate() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(4);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
