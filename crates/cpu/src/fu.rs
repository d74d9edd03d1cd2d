//! The functional-unit pool.
//!
//! Table 1: *"4 INT add, 1 INT mult/div, 1 FP add, 1 FP mult/div"*. An op
//! acquires a free unit of its class at issue and holds it for the op's
//! issue (initiation) interval while the result appears after the op's
//! latency. Every class is fully pipelined (an issue interval of one
//! cycle), so a unit acquired at `now` is free again at `now + 1`: the pool
//! only counts, per class, the units taken in the current cycle.

use crate::isa::OpClass;
use aep_mem::Cycle;

/// Latency/occupancy of one op class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Cycles until the result is available.
    pub latency: u64,
    /// Cycles the unit stays busy (initiation interval).
    pub issue_interval: u64,
}

/// Functional-unit pool configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of integer ALUs.
    pub int_alu: usize,
    /// Number of integer multiplier/dividers.
    pub int_mul: usize,
    /// Number of FP adders.
    pub fp_add: usize,
    /// Number of FP multiplier/dividers.
    pub fp_mul: usize,
    /// Number of memory ports (load/store issue slots).
    pub mem_ports: usize,
}

impl FuConfig {
    /// Table 1's pool: 4/1/1/1, with 2 memory ports (SimpleScalar default).
    #[must_use]
    pub fn date2006() -> Self {
        FuConfig {
            int_alu: 4,
            int_mul: 1,
            fp_add: 1,
            fp_mul: 1,
            mem_ports: 2,
        }
    }
}

/// Units per class, and how many of them the current cycle has taken.
#[derive(Debug, Clone)]
pub struct FuPool {
    /// Units per class, indexed by [`FuPool::class_index`].
    units: [usize; 5],
    /// Units taken during `cycle`, indexed like `units`.
    taken: [usize; 5],
    /// The cycle `taken` counts for.
    cycle: Cycle,
}

impl FuPool {
    /// Builds the pool.
    ///
    /// # Panics
    ///
    /// Panics if any unit count is zero.
    #[must_use]
    pub fn new(cfg: &FuConfig) -> Self {
        assert!(
            cfg.int_alu > 0
                && cfg.int_mul > 0
                && cfg.fp_add > 0
                && cfg.fp_mul > 0
                && cfg.mem_ports > 0,
            "every unit class needs at least one unit"
        );
        FuPool {
            units: [
                cfg.int_alu,
                cfg.int_mul,
                cfg.fp_add,
                cfg.fp_mul,
                cfg.mem_ports,
            ],
            taken: [0; 5],
            cycle: 0,
        }
    }

    /// SimpleScalar-style timings per op class.
    #[must_use]
    pub fn timing(class: OpClass) -> OpTiming {
        match class {
            OpClass::IntAlu | OpClass::Branch => OpTiming {
                latency: 1,
                issue_interval: 1,
            },
            OpClass::IntMul => OpTiming {
                latency: 3,
                issue_interval: 1,
            },
            OpClass::FpAdd => OpTiming {
                latency: 2,
                issue_interval: 1,
            },
            OpClass::FpMul => OpTiming {
                latency: 4,
                issue_interval: 1,
            },
            // Memory latency comes from the hierarchy; the port is held
            // for the address-generation slot only.
            OpClass::Load | OpClass::Store => OpTiming {
                latency: 1,
                issue_interval: 1,
            },
        }
    }

    /// The unit class `class` issues to.
    fn class_index(class: OpClass) -> usize {
        match class {
            OpClass::IntAlu | OpClass::Branch => 0,
            OpClass::IntMul => 1,
            OpClass::FpAdd => 2,
            OpClass::FpMul => 3,
            OpClass::Load | OpClass::Store => 4,
        }
    }

    /// Tries to acquire a unit of `class` at `now`; on success the unit is
    /// held for the class's issue interval (one cycle) and `true` is
    /// returned. Calls must come in non-decreasing `now` order.
    pub fn try_acquire(&mut self, class: OpClass, now: Cycle) -> bool {
        if now != self.cycle {
            self.cycle = now;
            self.taken = [0; 5];
        }
        let i = Self::class_index(class);
        if self.taken[i] < self.units[i] {
            self.taken[i] += 1;
            true
        } else {
            false
        }
    }

    /// Number of units of `class` free at `now`.
    #[must_use]
    pub fn free_units(&self, class: OpClass, now: Cycle) -> usize {
        let i = Self::class_index(class);
        if now == self.cycle {
            self.units[i] - self.taken[i]
        } else {
            self.units[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_int_alus_per_cycle() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        for _ in 0..4 {
            assert!(pool.try_acquire(OpClass::IntAlu, 0));
        }
        assert!(!pool.try_acquire(OpClass::IntAlu, 0), "only 4 ALUs");
        assert!(pool.try_acquire(OpClass::IntAlu, 1), "freed next cycle");
    }

    #[test]
    fn single_multiplier_serialises() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        assert!(pool.try_acquire(OpClass::IntMul, 0));
        assert!(!pool.try_acquire(OpClass::IntMul, 0));
        assert_eq!(pool.free_units(OpClass::IntMul, 0), 0);
        // A fast-forwarded stretch frees the unit as well.
        assert!(pool.try_acquire(OpClass::IntMul, 900));
        assert!(!pool.try_acquire(OpClass::IntMul, 900));
    }

    #[test]
    fn branch_shares_int_alu() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        for _ in 0..4 {
            assert!(pool.try_acquire(OpClass::Branch, 0));
        }
        assert!(!pool.try_acquire(OpClass::IntAlu, 0));
    }

    #[test]
    fn memory_ports_limit_loads() {
        let mut pool = FuPool::new(&FuConfig::date2006());
        assert!(pool.try_acquire(OpClass::Load, 0));
        assert!(pool.try_acquire(OpClass::Store, 0));
        assert!(!pool.try_acquire(OpClass::Load, 0), "2 mem ports");
        assert_eq!(pool.free_units(OpClass::Load, 1), 2);
    }

    #[test]
    fn every_class_is_fully_pipelined() {
        // The per-cycle counters free every unit at the next cycle, which
        // is exact only while every issue interval is one cycle.
        for class in [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
        ] {
            assert_eq!(FuPool::timing(class).issue_interval, 1, "{class:?}");
        }
    }

    #[test]
    fn timings_match_simplescalar_defaults() {
        assert_eq!(FuPool::timing(OpClass::IntAlu).latency, 1);
        assert_eq!(FuPool::timing(OpClass::IntMul).latency, 3);
        assert_eq!(FuPool::timing(OpClass::FpAdd).latency, 2);
        assert_eq!(FuPool::timing(OpClass::FpMul).latency, 4);
    }
}
