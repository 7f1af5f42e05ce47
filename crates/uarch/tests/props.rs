//! Property tests for the microarchitectural substrates.

use tracefill_uarch::bias::{BiasConfig, BiasTable};
use tracefill_uarch::cache::{CacheConfig, SetAssocCache};
use tracefill_uarch::pht::MultiBranchPredictor;
use tracefill_uarch::ras::ReturnStack;
use tracefill_util::prop::{check, coin};
use tracefill_util::SplitMix64;

const CASES: u64 = 256;

/// Values drawn by `draw`, a random number in `[min, max)` of them.
fn vec_of<T>(
    rng: &mut SplitMix64,
    min: u64,
    max: u64,
    draw: impl Fn(&mut SplitMix64) -> T,
) -> Vec<T> {
    let len = rng.range_u64(min, max);
    (0..len).map(|_| draw(rng)).collect()
}

/// The most recently used line is never the one evicted: after any
/// access sequence, re-touching the last address always hits.
#[test]
fn mru_line_survives() {
    check("mru_line_survives", CASES, |rng| {
        let addrs = vec_of(rng, 1, 200, |rng| rng.range_u32(0, 0x4000));
        let mut c = SetAssocCache::new(CacheConfig {
            bytes: 256,
            ways: 2,
            line_bytes: 16,
        });
        for &a in &addrs {
            c.access(a);
            assert!(c.probe(a), "just-accessed address must be resident");
        }
    });
}

/// A direct-mapped-equivalent working set that fits the cache never
/// misses after the first pass.
#[test]
fn resident_working_set_always_hits() {
    check("resident_working_set_always_hits", CASES, |rng| {
        let start = rng.range_u32(0, 1024);
        let cfg = CacheConfig {
            bytes: 1024,
            ways: 4,
            line_bytes: 32,
        };
        let mut c = SetAssocCache::new(cfg);
        let lines: Vec<u32> = (0..cfg.bytes / cfg.line_bytes)
            .map(|i| start + i * cfg.line_bytes)
            .collect();
        for &a in &lines {
            c.access(a);
        }
        let misses_before = c.stats().misses;
        for _ in 0..3 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.stats().misses, misses_before);
    });
}

/// A set-associative cache with an explicit valid bit per way and the
/// `min_by_key` victim choice: the model `SetAssocCache` must match.
struct ReferenceCache {
    sets: u32,
    ways: usize,
    line_shift: u32,
    /// `(valid, tag, last use)` per way, set-major.
    lines: Vec<(bool, u32, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> ReferenceCache {
        let sets = cfg.sets();
        ReferenceCache {
            sets,
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            lines: vec![(false, 0, 0); (sets * cfg.ways) as usize],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, addr: u32) -> (&mut [(bool, u32, u64)], u32) {
        let line = addr >> self.line_shift;
        let set = (line & (self.sets - 1)) as usize;
        let tag = line >> self.sets.trailing_zeros();
        (&mut self.lines[set * self.ways..(set + 1) * self.ways], tag)
    }

    fn probe(&mut self, addr: u32) -> bool {
        let (lines, tag) = self.set(addr);
        lines.iter().any(|&(valid, t, _)| valid && t == tag)
    }

    fn access(&mut self, addr: u32) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let (lines, tag) = self.set(addr);
        if let Some(line) = lines.iter_mut().find(|l| l.0 && l.1 == tag) {
            line.2 = clock;
            self.hits += 1;
            return true;
        }
        let victim = lines
            .iter_mut()
            .min_by_key(|l| if l.0 { l.2 } else { 0 })
            .expect("sets are not empty");
        *victim = (true, tag, clock);
        self.misses += 1;
        false
    }

    fn flush(&mut self) {
        self.lines.fill((false, 0, 0));
    }
}

/// Over random geometries and random access, probe and flush sequences,
/// the cache hits and misses exactly where the reference does.
#[test]
fn cache_matches_the_valid_bit_reference() {
    check("cache_matches_the_valid_bit_reference", CASES, |rng| {
        let line_bytes = 1 << rng.range_u32(2, 7);
        let ways = rng.range_u32(1, 9);
        let sets = 1 << rng.range_u32(0, 6);
        let cfg = CacheConfig {
            bytes: sets * ways * line_bytes,
            ways,
            line_bytes,
        };
        let mut cache = SetAssocCache::new(cfg);
        let mut reference = ReferenceCache::new(cfg);
        // A footprint of a few times the capacity, so sets fill, evict
        // and hit; sometimes anywhere in the address space, and sometimes
        // at the bottom, where tags are 0 like those of empty ways.
        let span = cfg.bytes * rng.range_u32(1, 5);
        let base = match coin(rng) {
            true => rng.next_u32(),
            false => 0,
        };
        for _ in 0..rng.range_u32(1, 400) {
            let addr = match rng.range_u32(0, 8) {
                0 => rng.next_u32(),
                _ => base.wrapping_add(rng.range_u32(0, span)),
            };
            match rng.range_u32(0, 40) {
                0 => {
                    cache.flush();
                    reference.flush();
                }
                1..=8 => assert_eq!(cache.probe(addr), reference.probe(addr), "probe {addr:#x}"),
                _ => assert_eq!(
                    cache.access(addr),
                    reference.access(addr),
                    "access {addr:#x}"
                ),
            }
        }
        assert_eq!(cache.stats().hits, reference.hits);
        assert_eq!(cache.stats().misses, reference.misses);
    });
}

/// Training a PHT entry with a constant direction always converges to
/// predicting that direction within two updates.
#[test]
fn pht_converges() {
    check("pht_converges", CASES, |rng| {
        let (pc, dir, slot) = (rng.next_u32(), coin(rng), rng.range_u64(0, 3) as usize);
        let mut p = MultiBranchPredictor::default();
        let pr = p.predict(pc, slot);
        p.update(pr, dir);
        p.update(pr, dir);
        assert_eq!(p.predict(pc, slot).taken, dir);
    });
}

/// History snapshots restore exactly regardless of intervening pushes.
#[test]
fn history_restore_is_exact() {
    check("history_restore_is_exact", CASES, |rng| {
        let pushes = vec_of(rng, 0, 40, coin);
        let pc = rng.next_u32();
        let mut p = MultiBranchPredictor::default();
        let snap = p.snapshot();
        let before = p.predict(pc, 0).index;
        for t in pushes {
            p.push_history(t);
        }
        p.restore(snap);
        assert_eq!(p.predict(pc, 0).index, before);
    });
}

/// The bias table promotes after exactly `threshold` consecutive
/// identical outcomes and demotes on the first contrary one.
/// (Threshold 1 is pinned separately below: there a single contrary
/// outcome is itself a full run and re-promotes the new direction.)
#[test]
fn promotion_boundary() {
    check("promotion_boundary", CASES, |rng| {
        let (threshold, dir) = (rng.range_u32(2, 32) as u8, coin(rng));
        let mut t = BiasTable::new(BiasConfig {
            entries: 64,
            threshold,
        });
        for i in 0..threshold {
            assert_eq!(t.promoted(0), None, "promoted after only {i} outcomes");
            t.observe(0, dir);
        }
        assert_eq!(t.promoted(0), Some(dir));
        t.observe(0, !dir);
        assert_eq!(t.promoted(0), None);
    });
}

/// At threshold 1 every outcome is a full run: the first one promotes,
/// and a contrary one demotes and at once promotes its own direction.
#[test]
fn threshold_one_repromotes_the_contrary_direction() {
    for dir in [false, true] {
        let mut t = BiasTable::new(BiasConfig {
            entries: 64,
            threshold: 1,
        });
        assert_eq!(t.promoted(0), None);
        t.observe(0, dir);
        assert_eq!(t.promoted(0), Some(dir));
        t.observe(0, !dir);
        assert_eq!(t.promoted(0), Some(!dir));
    }
}

/// RAS push/pop behaves as a bounded stack: popping after n pushes
/// returns the last min(n, depth) addresses in reverse order.
#[test]
fn ras_is_a_bounded_stack() {
    check("ras_is_a_bounded_stack", CASES, |rng| {
        let addrs = vec_of(rng, 0, 24, |rng| rng.next_u32());
        let depth = rng.range_u64(1, 12) as usize;
        let mut r = ReturnStack::new(depth);
        for &a in &addrs {
            r.push(a);
        }
        let expect: Vec<u32> = addrs.iter().rev().take(depth).copied().collect();
        let mut got = Vec::new();
        while let Some(a) = r.pop() {
            got.push(a);
        }
        assert_eq!(got, expect);
    });
}

/// The return stack's entries, oldest first, read from a copy that
/// shares them (so reading them copies on write).
fn ras_entries(r: &ReturnStack) -> Vec<u32> {
    let mut copy = r.clone();
    let mut got = Vec::new();
    while let Some(a) = copy.pop() {
        got.push(a);
    }
    got.reverse();
    got
}

/// Snapshots share the stack's entries copy on write, yet stay exact:
/// against a plain `Vec` model at several depths, pushes (overflowing
/// drops the oldest), pops, snapshots and restores keep the stack equal
/// to the model, every snapshot keeps the contents it was taken with,
/// and `restore` brings them back exactly.
#[test]
fn ras_snapshots_are_unchanged_by_later_pushes_and_pops() {
    check("ras_snapshots_are_unchanged", CASES, |rng| {
        let depth = [1, 2, 3, 8, 16][rng.range_u64(0, 5) as usize];
        let mut r = ReturnStack::new(depth);
        let mut model: Vec<u32> = Vec::new();
        let mut snaps = Vec::new();
        for _ in 0..rng.range_u64(1, 120) {
            match rng.range_u32(0, 8) {
                0..=2 => {
                    let a = rng.next_u32();
                    r.push(a);
                    if model.len() == depth {
                        model.remove(0);
                    }
                    model.push(a);
                }
                3 | 4 => assert_eq!(r.pop(), model.pop()),
                5 | 6 => snaps.push((r.snapshot(), model.clone())),
                _ if !snaps.is_empty() => {
                    let k = rng.range_u64(0, snaps.len() as u64) as usize;
                    let (snap, saved) = snaps[k].clone();
                    r.restore(snap);
                    model = saved;
                }
                _ => {}
            }
            assert_eq!((r.len(), r.top()), (model.len(), model.last().copied()));
            assert_eq!(ras_entries(&r), model);
            for (snap, saved) in &snaps {
                let mut probe = ReturnStack::new(depth);
                probe.restore(snap.clone());
                assert_eq!(&ras_entries(&probe), saved, "a snapshot changed");
            }
        }
    });
}
