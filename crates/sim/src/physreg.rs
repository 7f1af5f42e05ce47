//! Physical register file with reference counting and cluster-aware
//! value-availability timing.
//!
//! Register-move elimination (paper §4.2) maps two (or more) architectural
//! registers onto one physical register, so physical registers are
//! reference counted: one reference for the allocating instruction's
//! mapping plus one per move alias. A register is freed when its last
//! reference dies — at the retirement of the instruction that overwrote
//! the mapping, or at the squash of the instruction that created it.
//!
//! Each register also records *when* and *in which cluster* its value was
//! produced: a consumer in another cluster sees the value
//! `cross_cluster_latency` cycles later (paper §3), which is what the
//! placement optimization (§4.5) attacks.

/// Index of a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysReg(pub u16);

/// Sentinel cluster meaning "visible everywhere immediately" (architectural
/// values and values produced long ago).
pub const ANY_CLUSTER: u8 = u8::MAX;

/// Cycle value meaning "not yet scheduled".
pub const NEVER: u64 = u64::MAX;

/// The physical register file.
#[derive(Debug, Clone)]
pub struct PhysFile {
    vals: Vec<u32>,
    done_at: Vec<u64>,
    cluster: Vec<u8>,
    refcnt: Vec<u32>,
    free: Vec<u16>,
    cross_latency: u64,
}

impl PhysFile {
    /// The always-zero register backing `$zero`.
    pub const ZERO: PhysReg = PhysReg(0);

    /// Creates a file of `n` registers; register 0 is pinned to zero.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > u16::MAX as usize`.
    pub fn new(n: usize, cross_latency: u32) -> PhysFile {
        assert!((2..=u16::MAX as usize).contains(&n));
        let mut f = PhysFile {
            vals: vec![0; n],
            done_at: vec![0; n],
            cluster: vec![ANY_CLUSTER; n],
            refcnt: vec![0; n],
            free: (1..n as u16).rev().collect(),
            cross_latency: cross_latency as u64,
        };
        f.refcnt[0] = 1; // $zero is never freed
        f
    }

    /// Allocates a register with one reference.
    ///
    /// # Panics
    ///
    /// Panics if the file is exhausted (the pipeline must size
    /// `phys_regs` above its maximum in-flight demand).
    pub fn alloc(&mut self) -> PhysReg {
        let p = self.free.pop().expect("physical register file exhausted");
        self.vals[p as usize] = 0;
        self.done_at[p as usize] = NEVER;
        self.cluster[p as usize] = ANY_CLUSTER;
        self.refcnt[p as usize] = 1;
        PhysReg(p)
    }

    /// Adds a reference (move aliasing, or a consumer holding the register
    /// as a source until it retires). References to `$zero` are not
    /// counted — it is immortal.
    pub fn acquire(&mut self, p: PhysReg) {
        if p == Self::ZERO {
            return;
        }
        debug_assert!(self.refcnt[p.0 as usize] > 0, "acquire of dead register");
        self.refcnt[p.0 as usize] += 1;
    }

    /// Drops a reference, freeing the register when it was the last.
    pub fn release(&mut self, p: PhysReg) {
        if p == Self::ZERO {
            return;
        }
        let r = &mut self.refcnt[p.0 as usize];
        debug_assert!(*r > 0, "release of dead register {p:?}");
        *r -= 1;
        if *r == 0 {
            self.free.push(p.0);
        }
    }

    /// Writes the value a producer computed, visible in the producer's
    /// cluster at `done_at` and elsewhere one cross-cluster hop later.
    pub fn write(&mut self, p: PhysReg, val: u32, done_at: u64, cluster: u8) {
        debug_assert_ne!(
            p,
            Self::ZERO,
            "writes to the zero register are dropped earlier"
        );
        self.vals[p.0 as usize] = val;
        self.done_at[p.0 as usize] = done_at;
        self.cluster[p.0 as usize] = cluster;
    }

    /// Marks a register as holding an architectural (everywhere-visible)
    /// value, used when seeding reset state.
    pub fn write_arch(&mut self, p: PhysReg, val: u32) {
        self.vals[p.0 as usize] = val;
        self.done_at[p.0 as usize] = 0;
        self.cluster[p.0 as usize] = ANY_CLUSTER;
    }

    /// The register's value. Only meaningful once scheduled; callers gate
    /// on [`avail_at`](Self::avail_at).
    pub fn value(&self, p: PhysReg) -> u32 {
        self.vals[p.0 as usize]
    }

    /// Cycle at which the value is usable by a consumer in `cluster`
    /// ([`NEVER`] if the producer has not even been scheduled).
    pub fn avail_at(&self, p: PhysReg, cluster: u8) -> u64 {
        let i = p.0 as usize;
        let done = self.done_at[i];
        if done == NEVER {
            return NEVER;
        }
        let prod = self.cluster[i];
        if prod == ANY_CLUSTER || prod == cluster {
            done
        } else {
            done.saturating_add(self.cross_latency)
        }
    }

    /// Cycle at which the value exists at its producer (no bypass
    /// penalty) — the Figure 7 comparison point.
    pub fn done_at(&self, p: PhysReg) -> u64 {
        self.done_at[p.0 as usize]
    }

    /// Number of free registers (for backpressure checks and tests).
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_cycle() {
        let mut f = PhysFile::new(4, 1);
        let a = f.alloc();
        let b = f.alloc();
        let c = f.alloc();
        assert_eq!(f.free_count(), 0);
        f.release(b);
        assert_eq!(f.free_count(), 1);
        let b2 = f.alloc();
        assert_eq!(b2, b); // LIFO reuse
        f.release(a);
        f.release(c);
        f.release(b2);
        assert_eq!(f.free_count(), 3);
    }

    #[test]
    fn aliasing_keeps_register_alive() {
        let mut f = PhysFile::new(4, 1);
        let p = f.alloc();
        f.acquire(p); // move alias
        f.release(p);
        assert_eq!(f.free_count(), 2); // still live
        f.release(p);
        assert_eq!(f.free_count(), 3);
    }

    #[test]
    fn zero_is_immortal() {
        let mut f = PhysFile::new(4, 1);
        f.release(PhysFile::ZERO);
        f.release(PhysFile::ZERO);
        assert_eq!(f.value(PhysFile::ZERO), 0);
        assert_eq!(f.avail_at(PhysFile::ZERO, 3), 0);
    }

    #[test]
    fn cross_cluster_penalty() {
        let mut f = PhysFile::new(4, 1);
        let p = f.alloc();
        assert_eq!(f.avail_at(p, 0), NEVER);
        f.write(p, 42, 100, 2);
        assert_eq!(f.avail_at(p, 2), 100);
        assert_eq!(f.avail_at(p, 0), 101);
        assert_eq!(f.done_at(p), 100);
        // Architectural values have no penalty.
        f.write_arch(p, 7);
        assert_eq!(f.avail_at(p, 0), 0);
    }
}
