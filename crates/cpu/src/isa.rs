//! The micro-op format and the instruction-stream interface.
//!
//! The simulator is trace-driven: workload generators produce an infinite
//! stream of [`MicroOp`]s carrying everything the timing model needs —
//! operation class, register dependencies, memory address, and the branch's
//! *actual* outcome (so the predictor can be graded against it).

use aep_mem::Addr;

/// Number of architectural registers visible to the dependence tracker.
pub const NUM_REGS: usize = 64;

/// Operation classes, mirroring SimpleScalar's functional-unit classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer add/logic (also address arithmetic).
    IntAlu,
    /// Integer multiply/divide.
    IntMul,
    /// Floating-point add/subtract/compare.
    FpAdd,
    /// Floating-point multiply/divide.
    FpMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch.
    Branch,
}

impl OpClass {
    /// `true` for loads and stores.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One instruction as seen by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Instruction address (drives I-fetch and branch prediction).
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// First source register, if any.
    pub src1: Option<u8>,
    /// Second source register, if any.
    pub src2: Option<u8>,
    /// Destination register, if any.
    pub dst: Option<u8>,
    /// Effective address for loads/stores.
    pub addr: Option<Addr>,
    /// Actual branch outcome (meaningful only for [`OpClass::Branch`]).
    pub taken: bool,
    /// Actual branch target (meaningful only for taken branches).
    pub target: u64,
}

impl MicroOp {
    /// A register-to-register ALU op.
    #[must_use]
    pub const fn alu(pc: u64, src1: Option<u8>, src2: Option<u8>, dst: Option<u8>) -> Self {
        MicroOp {
            pc,
            class: OpClass::IntAlu,
            src1,
            src2,
            dst,
            addr: None,
            taken: false,
            target: 0,
        }
    }

    /// A load from `addr` into `dst`.
    #[must_use]
    pub fn load(pc: u64, addr: Addr, dst: Option<u8>) -> Self {
        MicroOp {
            pc,
            class: OpClass::Load,
            src1: None,
            src2: None,
            dst,
            addr: Some(addr),
            taken: false,
            target: 0,
        }
    }

    /// A store of `src1` to `addr`.
    #[must_use]
    pub fn store(pc: u64, addr: Addr, src: Option<u8>) -> Self {
        MicroOp {
            pc,
            class: OpClass::Store,
            src1: src,
            src2: None,
            dst: None,
            addr: Some(addr),
            taken: false,
            target: 0,
        }
    }

    /// A branch at `pc` with its actual outcome.
    #[must_use]
    pub fn branch(pc: u64, taken: bool, target: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Branch,
            src1: None,
            src2: None,
            dst: None,
            addr: None,
            taken,
            target,
        }
    }

    /// Panics (in debug builds) when the op is internally inconsistent;
    /// used by generators as a self-check.
    pub fn debug_validate(&self) {
        debug_assert_eq!(
            self.addr.is_some(),
            self.class.is_mem(),
            "memory ops and only memory ops carry addresses"
        );
        for r in [self.src1, self.src2, self.dst].into_iter().flatten() {
            debug_assert!((r as usize) < NUM_REGS, "register id out of range");
        }
    }
}

/// An infinite source of micro-ops.
///
/// Generators are infinite; the experiment runner decides how many
/// instructions to commit. Implementations must be deterministic for a
/// given construction (seed), so experiments replay exactly.
pub trait InstrStream {
    /// Produces the next instruction in program order.
    fn next_op(&mut self) -> MicroOp;
}

impl<S: InstrStream + ?Sized> InstrStream for Box<S> {
    fn next_op(&mut self) -> MicroOp {
        (**self).next_op()
    }
}

/// A trivial stream cycling through a fixed instruction sequence
/// (useful for tests and micro-benchmarks).
#[derive(Debug, Clone)]
pub struct LoopStream {
    ops: Vec<MicroOp>,
    next: usize,
}

impl LoopStream {
    /// Creates a stream that repeats `ops` forever.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    #[must_use]
    pub fn new(ops: Vec<MicroOp>) -> Self {
        assert!(!ops.is_empty(), "loop stream needs at least one op");
        LoopStream { ops, next: 0 }
    }
}

impl InstrStream for LoopStream {
    fn next_op(&mut self) -> MicroOp {
        let op = self.ops[self.next];
        self.next = (self.next + 1) % self.ops.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_consistent_ops() {
        let a = MicroOp::alu(0x1000, Some(1), Some(2), Some(3));
        a.debug_validate();
        assert_eq!(a.class, OpClass::IntAlu);

        let l = MicroOp::load(0x1004, Addr::new(0x80), Some(4));
        l.debug_validate();
        assert!(l.class.is_mem());

        let s = MicroOp::store(0x1008, Addr::new(0x88), Some(4));
        s.debug_validate();
        assert!(s.class.is_mem());

        let b = MicroOp::branch(0x100C, true, 0x1000);
        b.debug_validate();
        assert!(b.taken);
    }

    #[test]
    fn loop_stream_repeats() {
        let mut s = LoopStream::new(vec![
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::branch(4, true, 0),
        ]);
        let a = s.next_op();
        let b = s.next_op();
        let a2 = s.next_op();
        assert_eq!(a.pc, 0);
        assert_eq!(b.pc, 4);
        assert_eq!(a2.pc, 0);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_loop_stream_panics() {
        let _ = LoopStream::new(Vec::new());
    }

    #[test]
    fn boxed_streams_are_streams() {
        let mut s: Box<dyn InstrStream> =
            Box::new(LoopStream::new(vec![MicroOp::alu(8, None, None, None)]));
        assert_eq!(s.next_op().pc, 8);
    }
}
