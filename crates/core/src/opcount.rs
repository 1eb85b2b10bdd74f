//! Element-operation counting.
//!
//! The paper's analysis charges `T_Operation` per elementary action on an
//! array element (a memory access, an add, a subtract, …). Rather than
//! charging the *closed forms* to the simulated machine — which would make
//! the reproduced tables a tautology — the hot loops in [`crate::compress`],
//! [`crate::encode`] and the scheme drivers count into an [`OpCounter`] as
//! they execute, and the driver charges whatever was counted. (The dense
//! cell scans count once per part: the cells they visited plus three per
//! nonzero they actually emitted.) Unit tests in
//! [`crate::cost`] then verify that the counted totals match the paper's
//! closed forms, which is a real check on both the code and the formulas.

/// A running count of element operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounter {
    ops: u64,
}

impl OpCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        OpCounter::default()
    }

    /// Count `n` more operations.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    /// Count a single operation.
    #[inline]
    pub fn tick(&mut self) {
        self.ops += 1;
    }

    /// The count so far.
    pub fn get(&self) -> u64 {
        self.ops
    }

    /// Return the count and reset to zero — the pattern scheme drivers use
    /// between phases (`env.charge_ops(counter.take())`).
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut c = OpCounter::new();
        c.add(5);
        c.tick();
        c.add(2);
        assert_eq!(c.get(), 8);
    }

    #[test]
    fn take_resets() {
        let mut c = OpCounter::new();
        c.add(3);
        assert_eq!(c.take(), 3);
        assert_eq!(c.get(), 0);
        c.tick();
        assert_eq!(c.take(), 1);
    }
}
