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

/// Sentinel register id: the operand slot names no register.
pub const NO_REG: u8 = u8::MAX;

/// One instruction as seen by the timing model: 24 bytes, copied once,
/// from the stream into the pipeline's op ring.
///
/// A register slot holds [`NO_REG`] when the op has no such operand. The
/// one 64-bit operand is a load's or store's effective address or a
/// branch's actual target, and 0 for every other class; [`MicroOp::addr`]
/// and [`MicroOp::target`] read it by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Instruction address (drives I-fetch and branch prediction).
    pub pc: u64,
    /// Effective address (loads and stores) or actual target (branches).
    pub operand: u64,
    /// Operation class.
    pub class: OpClass,
    /// First source register, or [`NO_REG`].
    pub src1: u8,
    /// Second source register, or [`NO_REG`].
    pub src2: u8,
    /// Destination register, or [`NO_REG`].
    pub dst: u8,
    /// Actual branch outcome (meaningful only for [`OpClass::Branch`]).
    pub taken: bool,
}

const _: () = assert!(std::mem::size_of::<MicroOp>() == 24);

impl MicroOp {
    /// A register-to-register ALU op.
    #[must_use]
    pub const fn alu(pc: u64, src1: u8, src2: u8, dst: u8) -> Self {
        MicroOp::with_class(OpClass::IntAlu, pc, src1, src2, dst)
    }

    /// A register-to-register op of a non-memory, non-branch `class`.
    #[must_use]
    pub const fn with_class(class: OpClass, pc: u64, src1: u8, src2: u8, dst: u8) -> Self {
        MicroOp {
            pc,
            operand: 0,
            class,
            src1,
            src2,
            dst,
            taken: false,
        }
    }

    /// A load from `addr` into `dst`.
    #[must_use]
    pub const fn load(pc: u64, addr: Addr, dst: u8) -> Self {
        MicroOp {
            pc,
            operand: addr.0,
            class: OpClass::Load,
            src1: NO_REG,
            src2: NO_REG,
            dst,
            taken: false,
        }
    }

    /// A store of `src` to `addr`.
    #[must_use]
    pub const fn store(pc: u64, addr: Addr, src: u8) -> Self {
        MicroOp {
            pc,
            operand: addr.0,
            class: OpClass::Store,
            src1: src,
            src2: NO_REG,
            dst: NO_REG,
            taken: false,
        }
    }

    /// A branch at `pc` with its actual outcome.
    #[must_use]
    pub const fn branch(pc: u64, taken: bool, target: u64) -> Self {
        MicroOp {
            pc,
            operand: target,
            class: OpClass::Branch,
            src1: NO_REG,
            src2: NO_REG,
            dst: NO_REG,
            taken,
        }
    }

    /// The effective address of a load or store (`None` for the other
    /// classes).
    #[must_use]
    #[inline]
    pub fn addr(&self) -> Option<Addr> {
        self.class.is_mem().then_some(Addr(self.operand))
    }

    /// The actual target of a branch (0 for the other classes).
    #[must_use]
    #[inline]
    pub fn target(&self) -> u64 {
        if self.class == OpClass::Branch {
            self.operand
        } else {
            0
        }
    }

    /// Panics (in debug builds) when the op is internally inconsistent;
    /// used by generators as a self-check. Inline so the release build,
    /// where the body is empty, pays no cross-crate call per op.
    #[inline]
    pub fn debug_validate(&self) {
        debug_assert!(
            self.class.is_mem() || self.class == OpClass::Branch || self.operand == 0,
            "only memory ops and branches carry an operand"
        );
        for r in [self.src1, self.src2, self.dst] {
            debug_assert!(
                r == NO_REG || (r as usize) < NUM_REGS,
                "register id out of range"
            );
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

    /// Overwrites `ops` with the next `ops.len()` instructions in program
    /// order: the pipeline draws its op ring this way. The default calls
    /// [`InstrStream::next_op`] once per slot; a generator overrides it
    /// to draw straight into the ring.
    ///
    /// A consumer may draw ahead of what it executes: the pipeline draws a
    /// batch of up to 64 ops whenever fetch has used up the last one, so
    /// when a run stops, up to 64 drawn ops were never fetched.
    fn fill(&mut self, ops: &mut [MicroOp]) {
        for op in ops {
            *op = self.next_op();
        }
    }
}

impl<S: InstrStream + ?Sized> InstrStream for Box<S> {
    fn next_op(&mut self) -> MicroOp {
        (**self).next_op()
    }

    fn fill(&mut self, ops: &mut [MicroOp]) {
        (**self).fill(ops);
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
        let a = MicroOp::alu(0x1000, 1, 2, 3);
        a.debug_validate();
        assert_eq!(a.class, OpClass::IntAlu);
        assert_eq!((a.addr(), a.target()), (None, 0));

        let l = MicroOp::load(0x1004, Addr::new(0x80), 4);
        l.debug_validate();
        assert!(l.class.is_mem());
        assert_eq!((l.addr(), l.target()), (Some(Addr::new(0x80)), 0));
        assert_eq!((l.src1, l.src2, l.dst), (NO_REG, NO_REG, 4));

        let s = MicroOp::store(0x1008, Addr::new(0x88), 4);
        s.debug_validate();
        assert!(s.class.is_mem());
        assert_eq!((s.src1, s.dst), (4, NO_REG));

        let b = MicroOp::branch(0x100C, true, 0x1000);
        b.debug_validate();
        assert!(b.taken);
        assert_eq!((b.addr(), b.target()), (None, 0x1000));
    }

    #[test]
    fn loop_stream_repeats() {
        let mut s = LoopStream::new(vec![
            MicroOp::alu(0, NO_REG, NO_REG, 1),
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
        let mut s: Box<dyn InstrStream> = Box::new(LoopStream::new(vec![MicroOp::alu(
            8, NO_REG, NO_REG, NO_REG,
        )]));
        assert_eq!(s.next_op().pc, 8);
    }
}
