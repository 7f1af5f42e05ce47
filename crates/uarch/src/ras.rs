//! Return address stack (RAS) with checkpoint repair.
//!
//! The fetch engine pushes on calls and pops on returns, speculatively.
//! Checkpoints hold a full copy and misprediction recovery restores it
//! wholesale, which makes repair exact. The entries are shared copy on
//! write, so a snapshot costs one reference count and the stack copies
//! its entries only when it changes while a snapshot still holds them.

use std::sync::Arc;

/// A fixed-depth circular return address stack.
///
/// Pushes beyond the configured depth overwrite the oldest entry (as real
/// hardware does); pops from an empty stack return `None`.
///
/// # Examples
///
/// ```
/// use tracefill_uarch::ras::ReturnStack;
///
/// let mut ras = ReturnStack::new(4);
/// ras.push(0x400);
/// let snap = ras.snapshot();
/// ras.push(0x500);
/// assert_eq!(ras.pop(), Some(0x500));
/// ras.restore(snap);
/// assert_eq!(ras.pop(), Some(0x400));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnStack {
    entries: Arc<Vec<u32>>,
    depth: usize,
}

/// A checkpointed copy of the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasSnapshot {
    entries: Arc<Vec<u32>>,
}

impl ReturnStack {
    /// Creates an empty stack holding at most `depth` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> ReturnStack {
        assert!(depth > 0, "return stack needs at least one entry");
        ReturnStack {
            entries: Arc::new(Vec::with_capacity(depth)),
            depth,
        }
    }

    /// Pushes a return address, evicting the oldest entry when full.
    pub fn push(&mut self, addr: u32) {
        let entries = Arc::make_mut(&mut self.entries);
        if entries.len() == self.depth {
            entries.remove(0);
        }
        entries.push(addr);
    }

    /// Pops the most recent return address.
    pub fn pop(&mut self) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        Arc::make_mut(&mut self.entries).pop()
    }

    /// The address a return would pop, without popping.
    pub fn top(&self) -> Option<u32> {
        self.entries.last().copied()
    }

    /// Captures the full stack for checkpoint repair (one reference
    /// count; the entries are copied only if the stack later changes).
    pub fn snapshot(&self) -> RasSnapshot {
        RasSnapshot {
            entries: Arc::clone(&self.entries),
        }
    }

    /// Restores a checkpointed stack.
    pub fn restore(&mut self, snap: RasSnapshot) {
        self.entries = snap.entries;
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnStack::new(8);
        r.push(1);
        r.push(2);
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut r = ReturnStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut r = ReturnStack::new(4);
        r.push(10);
        r.push(20);
        let snap = r.snapshot();
        r.pop();
        r.pop();
        r.push(99);
        r.restore(snap);
        assert_eq!(r.pop(), Some(20));
        assert_eq!(r.pop(), Some(10));
    }
}
