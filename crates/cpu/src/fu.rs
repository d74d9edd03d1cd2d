//! The functional-unit pool.
//!
//! Table 1: *"4 INT add, 1 INT mult/div, 1 FP add, 1 FP mult/div"*. An op
//! takes a unit of its class at issue and holds it for the op's issue
//! (initiation) interval while the result appears after the op's latency.
//! Every class is fully pipelined (an issue interval of one cycle), so each
//! cycle's issue budget is simply the pool's unit count per class
//! ([`FuPool::units`]): the issue stage counts down a copy of it.

use crate::isa::OpClass;

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

// Per op class, by discriminant (`IntAlu, IntMul, FpAdd, FpMul, Load,
// Store, Branch`): the unit class it issues to and its latency. Tables,
// not `match`es, keep a branch on the class out of dispatch, which decodes
// both for every op.

/// [`FuPool::class_index`]: branches use the integer ALUs, loads and
/// stores the memory ports.
const UNIT: [u8; 7] = [0, 1, 2, 3, 4, 4, 0];

/// [`FuPool::timing`]'s latency. A memory op's latency comes from the
/// hierarchy; its port is held for the address-generation slot only.
const LATENCY: [u8; 7] = [1, 3, 2, 4, 1, 1, 1];

/// Units per class.
#[derive(Debug, Clone)]
pub struct FuPool {
    /// Units per class, indexed by [`FuPool::class_index`].
    units: [usize; 5],
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
        }
    }

    /// The units of each class, indexed by [`FuPool::class_index`]: one
    /// cycle's issue budget, since every class is fully pipelined.
    #[must_use]
    pub(crate) fn units(&self) -> [usize; 5] {
        self.units
    }

    /// SimpleScalar-style timings per op class.
    #[must_use]
    pub fn timing(class: OpClass) -> OpTiming {
        OpTiming {
            latency: u64::from(LATENCY[class as usize]),
            issue_interval: 1,
        }
    }

    /// The unit class `class` issues to.
    #[must_use]
    pub(crate) fn class_index(class: OpClass) -> usize {
        usize::from(UNIT[class as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cycle's units of `class` in Table 1's pool.
    fn units_of(class: OpClass) -> usize {
        FuPool::new(&FuConfig::date2006()).units()[FuPool::class_index(class)]
    }

    #[test]
    fn four_int_alus_per_cycle() {
        assert_eq!(units_of(OpClass::IntAlu), 4);
    }

    #[test]
    fn single_multiplier_serialises() {
        assert_eq!(units_of(OpClass::IntMul), 1);
        assert_eq!(units_of(OpClass::FpAdd), 1);
        assert_eq!(units_of(OpClass::FpMul), 1);
    }

    #[test]
    fn branch_shares_int_alu() {
        assert_eq!(
            FuPool::class_index(OpClass::Branch),
            FuPool::class_index(OpClass::IntAlu)
        );
        // Every other class has units of its own.
        let mut distinct = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::Load,
        ]
        .map(FuPool::class_index);
        distinct.sort_unstable();
        assert_eq!(distinct, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn memory_ports_limit_loads() {
        // Two memory ports, shared by loads and stores.
        assert_eq!(units_of(OpClass::Load), 2);
        assert_eq!(
            FuPool::class_index(OpClass::Store),
            FuPool::class_index(OpClass::Load)
        );
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_class_panics() {
        let _ = FuPool::new(&FuConfig {
            int_mul: 0,
            ..FuConfig::date2006()
        });
    }

    #[test]
    fn every_class_is_fully_pipelined() {
        // A cycle's budget is the whole pool, which is exact only while
        // every issue interval is one cycle.
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
        for class in [OpClass::Load, OpClass::Store, OpClass::Branch] {
            assert_eq!(FuPool::timing(class).latency, 1, "{class:?}");
        }
    }
}
