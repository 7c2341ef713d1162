//! Pre-decoding: translating linked bytecode into the flat form the
//! dispatch loop executes.
//!
//! The classic executor re-fetches and clones an [`Instr`] — operand
//! `Vec` included — on every iteration. [`DecodedProgram::decode`]
//! instead translates the whole program **once, at load time** into a
//! single flat `Vec<DecodedOp>`:
//!
//! * every function's code is laid out contiguously, one slot per
//!   source instruction, with a [`DecodedOp::FuncEnd`] sentinel after
//!   each function (running off the end reproduces the classic
//!   "program counter out of range" error without a bounds check on
//!   the hot path);
//! * jump and branch targets are rewritten to **absolute** pcs into
//!   that array (call and return targets resolve through the
//!   [`FuncInfo`] base table so return addresses stay
//!   function-relative and engine-independent);
//! * operand lists become the fixed-size, `Copy` [`PrimArgs`], so the
//!   dispatch loop never allocates;
//! * adjacent pairs matching a [`FusionKind`] template are **fused**
//!   into superinstructions. A fused op sits in the *first*
//!   instruction's slot; the second instruction's slot keeps its plain
//!   decoding as a jump-target fallback, so fusion needs no
//!   control-flow analysis and cannot change where a branch may land.
//!   Fused handlers are literal compositions of the two plain handlers
//!   (fuel check and instruction/cycle accounting between the halves
//!   included), which is why every `vm.*` counter is decode-invariant;
//! * likewise, adjacent fall-through *triples* matching a
//!   [`TripleKind`] template fuse into a three-op superinstruction in
//!   the first slot, with the second **and** third slots keeping their
//!   plain decodings. The greedy scan prefers a triple over a pair at
//!   the same position;
//! * every through-`cp` call site is assigned a monomorphic
//!   inline-cache index (`ic`) so the executor can track per-site
//!   callee stability (`vm.dispatch.ic.*`).
//!
//! Decoding is total for verifier-clean programs. The only divergence
//! for *unverifiable* code is that an out-of-function branch target is
//! clamped to the function's end sentinel (the classic engine would
//! report the original out-of-range pc; both still fail with the same
//! message).

use std::fmt;

use lesgs_frontend::{Const, FuncId, Prim};
use lesgs_ir::machine::MAX_PERMI_REGS;
use lesgs_ir::Reg;
use lesgs_metrics::Registry;

use crate::instr::{CallTarget, Imm, Instr, SlotClass};
use crate::program::VmProgram;

/// The largest operand count a [`DecodedOp::Prim`] can carry —
/// [`Prim::arity`]'s maximum (`vector-set!`).
pub const MAX_DECODED_ARGS: usize = 3;

/// A fixed-capacity, `Copy` operand list (replaces the heap-allocated
/// `Vec<Reg>` of [`Instr::Prim`] on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimArgs {
    len: u8,
    regs: [Reg; MAX_DECODED_ARGS],
}

impl PrimArgs {
    /// Packs an operand slice.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_DECODED_ARGS`] operands — no [`Prim`]
    /// takes more, and `verify_bytecode` rejects malformed arities
    /// before any decoded program reaches the dispatcher.
    pub fn from_slice(args: &[Reg]) -> PrimArgs {
        assert!(
            args.len() <= MAX_DECODED_ARGS,
            "primitive with {} operands (max {MAX_DECODED_ARGS})",
            args.len()
        );
        let mut regs = [Reg(0); MAX_DECODED_ARGS];
        regs[..args.len()].copy_from_slice(args);
        PrimArgs {
            len: args.len() as u8,
            regs,
        }
    }

    /// The operands as a slice.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

/// A fixed-capacity, `Copy` encoding of a `permi` operand list
/// (replaces the two heap-allocated `Vec`s of [`Instr::Permi`] on the
/// hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermiArgs {
    len: u8,
    regs: [Reg; MAX_PERMI_REGS],
    perm: [u8; MAX_PERMI_REGS],
}

impl PermiArgs {
    /// Packs the register list and permutation.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_PERMI_REGS`] registers or a length
    /// mismatch — codegen never emits one and `verify_bytecode`
    /// rejects such programs.
    pub fn from_parts(regs: &[Reg], perm: &[u8]) -> PermiArgs {
        assert!(
            regs.len() <= MAX_PERMI_REGS && regs.len() == perm.len(),
            "permi with {} registers / {} indices (max {MAX_PERMI_REGS})",
            regs.len(),
            perm.len()
        );
        let mut r = [Reg(0); MAX_PERMI_REGS];
        let mut p = [0u8; MAX_PERMI_REGS];
        r[..regs.len()].copy_from_slice(regs);
        p[..perm.len()].copy_from_slice(perm);
        PermiArgs {
            len: regs.len() as u8,
            regs: r,
            perm: p,
        }
    }

    /// The registers touched, in operand order.
    pub fn regs(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// The permutation over register indices.
    pub fn perm(&self) -> &[u8] {
        &self.perm[..self.len as usize]
    }
}

/// Per-function metadata carried into the decoded program: the base pc
/// of the function's slice of the flat array plus everything the
/// executor needs for frames, activation classification, and error
/// reporting.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Diagnostic name (error locations, `--trace` lines).
    pub name: String,
    /// Absolute pc of the function's first decoded op.
    pub base: u32,
    /// Source instruction count (the sentinel sits at `base + code_len`).
    pub code_len: u32,
    /// Frame size in slots.
    pub frame_size: u32,
    /// Leading incoming-parameter slots (never poisoned).
    pub n_incoming: u32,
    /// Static leaf flag, for activation classification.
    pub syntactic_leaf: bool,
    /// Every path makes a call (`ret ∈ S_t ∩ S_f`).
    pub call_inevitable: bool,
}

/// The pair superinstruction catalogue: every pair shape the decoder
/// fuses and the executor has a composed handler for. The order is the
/// order of the `vm.dispatch.fused.*` keys and of the bench tables'
/// fusion columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FusionKind {
    /// Register-only predicate followed by a conditional branch on its
    /// result.
    CmpBranch,
    /// Back-to-back stack loads (eager-restore runs after calls).
    LoadLoad,
    /// Back-to-back stack stores (lazy-save runs before calls).
    StoreStore,
    /// Back-to-back register moves (greedy-shuffle argument setup).
    MovMov,
    /// Register move followed by an immediate load.
    MovImm,
}

impl FusionKind {
    /// Every template, in catalogue order (`fused_by_kind` index order).
    pub const ALL: [FusionKind; 5] = [
        FusionKind::CmpBranch,
        FusionKind::LoadLoad,
        FusionKind::StoreStore,
        FusionKind::MovMov,
        FusionKind::MovImm,
    ];

    /// Number of templates in the catalogue.
    pub const COUNT: usize = FusionKind::ALL.len();

    /// The stable snake_case key used in metric names
    /// (`vm.dispatch.fused.<key>`) and table columns.
    pub fn key(self) -> &'static str {
        match self {
            FusionKind::CmpBranch => "cmp_branch",
            FusionKind::LoadLoad => "load_load",
            FusionKind::StoreStore => "store_store",
            FusionKind::MovMov => "mov_mov",
            FusionKind::MovImm => "mov_imm",
        }
    }
}

/// The three-instruction superinstruction catalogue: every fall-through
/// triple shape the decoder fuses and the executor has a composed
/// handler for, in `vm.dispatch.fused.*` key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TripleKind {
    /// Primitive, stack store of anything, register move (the
    /// lazy-save tail of an evaluation).
    PrimStoreMov,
    /// Three back-to-back stack loads (eager-restore runs).
    LoadLoadLoad,
    /// Register move, immediate load, primitive (binop setup).
    MovImmPrim,
    /// Three back-to-back stack stores (lazy-save runs).
    StoreStoreStore,
}

impl TripleKind {
    /// Every template, in catalogue order (`fused_by_triple` index
    /// order).
    pub const ALL: [TripleKind; 4] = [
        TripleKind::PrimStoreMov,
        TripleKind::LoadLoadLoad,
        TripleKind::MovImmPrim,
        TripleKind::StoreStoreStore,
    ];

    /// Number of templates in the catalogue.
    pub const COUNT: usize = TripleKind::ALL.len();

    /// The stable snake_case key used in metric names
    /// (`vm.dispatch.fused.<key>`) and table columns.
    pub fn key(self) -> &'static str {
        match self {
            TripleKind::PrimStoreMov => "prim_store_mov",
            TripleKind::LoadLoadLoad => "load_load_load",
            TripleKind::MovImmPrim => "mov_imm_prim",
            TripleKind::StoreStoreStore => "store_store_store",
        }
    }
}

/// What decoding did to one program — the static side of the
/// `vm.dispatch.*` metrics namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Source instructions across all functions.
    pub source_instructions: u64,
    /// Slots in the flat array (source slots plus one end sentinel per
    /// function; fusion preserves slot count).
    pub decoded_ops: u64,
    /// Fused pairs of any kind.
    pub fused_pairs: u64,
    /// Fused pairs by template, indexed by [`FusionKind`] discriminant
    /// ([`FusionKind::ALL`] order).
    pub fused_by_kind: [u64; FusionKind::COUNT],
    /// Fused triples of any kind.
    pub fused_triples: u64,
    /// Fused triples by template, indexed by [`TripleKind`]
    /// discriminant ([`TripleKind::ALL`] order).
    pub fused_by_triple: [u64; TripleKind::COUNT],
}

impl DecodeStats {
    /// Fused-pair count for one template.
    pub fn fused(&self, kind: FusionKind) -> u64 {
        self.fused_by_kind[kind as usize]
    }

    /// Fused-triple count for one template.
    pub fn fused3(&self, kind: TripleKind) -> u64 {
        self.fused_by_triple[kind as usize]
    }

    /// Exports the counters under the stable `vm.dispatch.*` names
    /// documented in OBSERVABILITY.md. These are **load-time** facts
    /// about the program, recorded at compile time — run-time `vm.*`
    /// counters keep the exact key set they had before pre-decoding
    /// existed. Every catalogue template's counter is emitted, zero
    /// included, so the key set (and with it profile JSON and bench
    /// table shapes) is a fixed function of the catalogue.
    pub fn record(&self, reg: &mut Registry) {
        reg.inc("vm.dispatch.source_instructions", self.source_instructions);
        reg.inc("vm.dispatch.decoded_ops", self.decoded_ops);
        reg.inc("vm.dispatch.fused_pairs", self.fused_pairs);
        reg.inc("vm.dispatch.fused_triples", self.fused_triples);
        for kind in FusionKind::ALL {
            reg.inc(
                &format!("vm.dispatch.fused.{}", kind.key()),
                self.fused(kind),
            );
        }
        for kind in TripleKind::ALL {
            reg.inc(
                &format!("vm.dispatch.fused.{}", kind.key()),
                self.fused3(kind),
            );
        }
    }
}

/// One slot of the flat decoded array. All variants are `Copy`; jump
/// targets are absolute pcs; primitive operands are inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodedOp {
    /// `dst ← immediate`.
    Imm {
        /// Destination.
        dst: Reg,
        /// The constant.
        imm: Imm,
    },
    /// `dst ← constants[idx]`.
    Const {
        /// Destination.
        dst: Reg,
        /// Constant-pool index.
        idx: u32,
    },
    /// `dst ← src`.
    Mov {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst ← stack[fp + slot]` — a memory load with latency.
    StackLoad {
        /// Destination.
        dst: Reg,
        /// Frame offset.
        slot: u32,
        /// Instrumentation class.
        class: SlotClass,
    },
    /// `stack[fp + slot] ← src`.
    StackStore {
        /// Frame offset.
        slot: u32,
        /// Source.
        src: Reg,
        /// Instrumentation class.
        class: SlotClass,
    },
    /// `dst ← op(args…)`.
    Prim {
        /// The operation.
        op: Prim,
        /// Destination.
        dst: Reg,
        /// Operand registers.
        args: PrimArgs,
    },
    /// Unconditional jump to an absolute pc.
    Jump {
        /// Absolute target pc.
        target: u32,
    },
    /// Conditional branch to an absolute pc. `on_true` distinguishes
    /// `brtrue` (jump when truthy) from `brfalse` (jump when `#f`).
    Branch {
        /// Condition register.
        src: Reg,
        /// Absolute target pc.
        target: u32,
        /// Static prediction of the fallthrough path.
        likely: Option<bool>,
        /// True for `brtrue`, false for `brfalse`.
        on_true: bool,
    },
    /// Non-tail call of a known function.
    CallStatic {
        /// Callee.
        callee: FuncId,
        /// Caller frame size (callee frame starts above it).
        frame_advance: u32,
    },
    /// Non-tail call through the closure in `cp`.
    CallClosure {
        /// Caller frame size.
        frame_advance: u32,
        /// Monomorphic inline-cache site index.
        ic: u32,
    },
    /// Tail call of a known function.
    TailCallStatic {
        /// Callee.
        callee: FuncId,
    },
    /// Tail call through the closure in `cp`.
    TailCallClosure {
        /// Monomorphic inline-cache site index.
        ic: u32,
    },
    /// Jump through the return address in `ret`, restoring `fp`.
    Return,
    /// Allocate a closure with `n_free` uninitialized slots.
    AllocClosure {
        /// Destination.
        dst: Reg,
        /// Code pointer.
        func: FuncId,
        /// Number of captured slots.
        n_free: u32,
    },
    /// `closure(clo).free[index] ← src`.
    ClosureSlotSet {
        /// Register holding the closure.
        clo: Reg,
        /// Slot index.
        index: u32,
        /// Value source.
        src: Reg,
    },
    /// `dst ← closure(cp).free[index]` — a memory load with latency.
    LoadFree {
        /// Destination.
        dst: Reg,
        /// Slot index.
        index: u32,
    },
    /// `dst ← globals[index]` — a memory load with latency.
    LoadGlobal {
        /// Destination.
        dst: Reg,
        /// Global slot.
        index: u32,
    },
    /// `globals[index] ← src`.
    StoreGlobal {
        /// Global slot.
        index: u32,
        /// Source.
        src: Reg,
    },
    /// Exchange two registers in one instruction.
    Swap {
        /// First register.
        a: Reg,
        /// Second register.
        b: Reg,
    },
    /// Apply a register permutation in place: simultaneously set
    /// `regs[i] ← old regs[perm[i]]`.
    Permi {
        /// The packed register list and permutation.
        args: PermiArgs,
    },
    /// Stop the machine; the program value is in `rv`.
    Halt,
    /// Fused predicate + conditional branch (the branch consumes the
    /// predicate's result in the same dispatch). Occupies the
    /// predicate's slot; the branch's slot keeps a plain
    /// [`DecodedOp::Branch`] as a jump-target fallback.
    CmpBranch {
        /// The predicate.
        op: Prim,
        /// Predicate destination register.
        dst: Reg,
        /// Predicate operands.
        args: PrimArgs,
        /// Branch condition register.
        src: Reg,
        /// Absolute branch target pc.
        target: u32,
        /// Static prediction of the fallthrough path.
        likely: Option<bool>,
        /// True for `brtrue`, false for `brfalse`.
        on_true: bool,
    },
    /// Fused pair of register moves (greedy-shuffle argument setup).
    MovMov {
        /// First destination.
        dst1: Reg,
        /// First source.
        src1: Reg,
        /// Second destination.
        dst2: Reg,
        /// Second source (read after the first move writes).
        src2: Reg,
    },
    /// Fused register move followed by an immediate load.
    MovImm {
        /// Move destination.
        dst1: Reg,
        /// Move source.
        src1: Reg,
        /// Immediate destination.
        dst2: Reg,
        /// The constant.
        imm2: Imm,
    },
    /// Fused pair of stack loads (eager-restore runs after calls).
    LoadLoad {
        /// First destination.
        dst1: Reg,
        /// First frame offset.
        slot1: u32,
        /// First instrumentation class.
        class1: SlotClass,
        /// Second destination.
        dst2: Reg,
        /// Second frame offset.
        slot2: u32,
        /// Second instrumentation class.
        class2: SlotClass,
    },
    /// Fused pair of stack stores (lazy-save runs before calls).
    StoreStore {
        /// First frame offset.
        slot1: u32,
        /// First source.
        src1: Reg,
        /// First instrumentation class.
        class1: SlotClass,
        /// Second frame offset.
        slot2: u32,
        /// Second source.
        src2: Reg,
        /// Second instrumentation class.
        class2: SlotClass,
    },
    /// Fused triple: primitive, stack store, register move. Occupies
    /// the primitive's slot; the second and third slots keep their
    /// plain decodings as jump-target fallbacks (the same discipline
    /// as every fused pair).
    PrimStoreMov {
        /// The primitive.
        op: Prim,
        /// Primitive destination.
        dst1: Reg,
        /// Primitive operands.
        args: PrimArgs,
        /// Store frame offset.
        slot2: u32,
        /// Store source.
        src2: Reg,
        /// Store instrumentation class.
        class2: SlotClass,
        /// Move destination.
        dst3: Reg,
        /// Move source.
        src3: Reg,
    },
    /// Fused triple: register move, immediate load, primitive.
    MovImmPrim {
        /// Move destination.
        dst1: Reg,
        /// Move source.
        src1: Reg,
        /// Immediate destination.
        dst2: Reg,
        /// The constant.
        imm2: Imm,
        /// The primitive.
        op: Prim,
        /// Primitive destination.
        dst3: Reg,
        /// Primitive operands.
        args: PrimArgs,
    },
    /// Fused triple of stack loads (eager-restore runs).
    LoadLoadLoad {
        /// First destination.
        dst1: Reg,
        /// First frame offset.
        slot1: u32,
        /// First instrumentation class.
        class1: SlotClass,
        /// Second destination.
        dst2: Reg,
        /// Second frame offset.
        slot2: u32,
        /// Second instrumentation class.
        class2: SlotClass,
        /// Third destination.
        dst3: Reg,
        /// Third frame offset.
        slot3: u32,
        /// Third instrumentation class.
        class3: SlotClass,
    },
    /// Fused triple of stack stores (lazy-save runs).
    StoreStoreStore {
        /// First frame offset.
        slot1: u32,
        /// First source.
        src1: Reg,
        /// First instrumentation class.
        class1: SlotClass,
        /// Second frame offset.
        slot2: u32,
        /// Second source.
        src2: Reg,
        /// Second instrumentation class.
        class2: SlotClass,
        /// Third frame offset.
        slot3: u32,
        /// Third source.
        src3: Reg,
        /// Third instrumentation class.
        class3: SlotClass,
    },
    /// End-of-function sentinel: executing it is the classic "program
    /// counter out of range" error.
    FuncEnd,
}

impl DecodedOp {
    /// The absolute jump target this op may transfer to, if any (the
    /// fixture tests' jump-target table).
    pub fn jump_target(&self) -> Option<u32> {
        match *self {
            DecodedOp::Jump { target }
            | DecodedOp::Branch { target, .. }
            | DecodedOp::CmpBranch { target, .. } => Some(target),
            _ => None,
        }
    }
}

impl fmt::Display for DecodedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args = |f: &mut fmt::Formatter<'_>, args: &PrimArgs| {
            for (i, a) in args.as_slice().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            Ok(())
        };
        let likely = |f: &mut fmt::Formatter<'_>, l: &Option<bool>| match l {
            Some(l) => write!(f, " ;likely={l}"),
            None => Ok(()),
        };
        match self {
            DecodedOp::Imm { dst, imm } => write!(f, "{dst} <- {imm:?}"),
            DecodedOp::Const { dst, idx } => write!(f, "{dst} <- const[{idx}]"),
            DecodedOp::Mov { dst, src } => write!(f, "{dst} <- {src}"),
            DecodedOp::StackLoad { dst, slot, class } => {
                write!(f, "{dst} <- fp[{slot}] ;{class}")
            }
            DecodedOp::StackStore { slot, src, class } => {
                write!(f, "fp[{slot}] <- {src} ;{class}")
            }
            DecodedOp::Prim { op, dst, args: a } => {
                write!(f, "{dst} <- {op}(")?;
                args(f, a)?;
                write!(f, ")")
            }
            DecodedOp::Jump { target } => write!(f, "jump @{target}"),
            DecodedOp::Branch {
                src,
                target,
                likely: l,
                on_true,
            } => {
                let name = if *on_true { "brtrue" } else { "brfalse" };
                write!(f, "{name} {src} -> @{target}")?;
                likely(f, l)
            }
            DecodedOp::CallStatic {
                callee,
                frame_advance,
            } => write!(f, "call {callee} (+{frame_advance})"),
            DecodedOp::CallClosure { frame_advance, ic } => {
                write!(f, "call cp (+{frame_advance}) ;ic={ic}")
            }
            DecodedOp::TailCallStatic { callee } => write!(f, "tailcall {callee}"),
            DecodedOp::TailCallClosure { ic } => write!(f, "tailcall cp ;ic={ic}"),
            DecodedOp::Return => write!(f, "return"),
            DecodedOp::AllocClosure { dst, func, n_free } => {
                write!(f, "{dst} <- closure {func} [{n_free}]")
            }
            DecodedOp::ClosureSlotSet { clo, index, src } => {
                write!(f, "{clo}.free[{index}] <- {src}")
            }
            DecodedOp::LoadFree { dst, index } => write!(f, "{dst} <- cp.free[{index}]"),
            DecodedOp::LoadGlobal { dst, index } => write!(f, "{dst} <- global[{index}]"),
            DecodedOp::StoreGlobal { index, src } => write!(f, "global[{index}] <- {src}"),
            DecodedOp::Swap { a, b } => write!(f, "swap {a}, {b}"),
            DecodedOp::Permi { args: a } => {
                write!(f, "permi [")?;
                for (i, r) in a.regs().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "] perm [")?;
                for (i, p) in a.perm().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]")
            }
            DecodedOp::Halt => write!(f, "halt"),
            DecodedOp::CmpBranch {
                op,
                dst,
                args: a,
                src,
                target,
                likely: l,
                on_true,
            } => {
                let name = if *on_true { "brtrue" } else { "brfalse" };
                write!(f, "{dst} <- {op}(")?;
                args(f, a)?;
                write!(f, ") ; fused {name} {src} -> @{target}")?;
                likely(f, l)
            }
            DecodedOp::MovMov {
                dst1,
                src1,
                dst2,
                src2,
            } => write!(f, "{dst1} <- {src1} ; fused {dst2} <- {src2}"),
            DecodedOp::MovImm {
                dst1,
                src1,
                dst2,
                imm2,
            } => write!(f, "{dst1} <- {src1} ; fused {dst2} <- {imm2:?}"),
            DecodedOp::LoadLoad {
                dst1,
                slot1,
                class1,
                dst2,
                slot2,
                class2,
            } => write!(
                f,
                "{dst1} <- fp[{slot1}] ;{class1} ; fused {dst2} <- fp[{slot2}] ;{class2}"
            ),
            DecodedOp::StoreStore {
                slot1,
                src1,
                class1,
                slot2,
                src2,
                class2,
            } => write!(
                f,
                "fp[{slot1}] <- {src1} ;{class1} ; fused fp[{slot2}] <- {src2} ;{class2}"
            ),
            DecodedOp::PrimStoreMov {
                op,
                dst1,
                args: a,
                slot2,
                src2,
                class2,
                dst3,
                src3,
            } => {
                write!(f, "{dst1} <- {op}(")?;
                args(f, a)?;
                write!(
                    f,
                    ") ; fused fp[{slot2}] <- {src2} ;{class2} ; fused {dst3} <- {src3}"
                )
            }
            DecodedOp::MovImmPrim {
                dst1,
                src1,
                dst2,
                imm2,
                op,
                dst3,
                args: a,
            } => {
                write!(
                    f,
                    "{dst1} <- {src1} ; fused {dst2} <- {imm2:?} ; fused {dst3} <- {op}("
                )?;
                args(f, a)?;
                write!(f, ")")
            }
            DecodedOp::LoadLoadLoad {
                dst1,
                slot1,
                class1,
                dst2,
                slot2,
                class2,
                dst3,
                slot3,
                class3,
            } => write!(
                f,
                "{dst1} <- fp[{slot1}] ;{class1} ; fused {dst2} <- fp[{slot2}] ;{class2} \
                 ; fused {dst3} <- fp[{slot3}] ;{class3}"
            ),
            DecodedOp::StoreStoreStore {
                slot1,
                src1,
                class1,
                slot2,
                src2,
                class2,
                slot3,
                src3,
                class3,
            } => write!(
                f,
                "fp[{slot1}] <- {src1} ;{class1} ; fused fp[{slot2}] <- {src2} ;{class2} \
                 ; fused fp[{slot3}] <- {src3} ;{class3}"
            ),
            DecodedOp::FuncEnd => write!(f, "func-end"),
        }
    }
}

/// A fully decoded program: the flat op array, the per-function base
/// table, and everything a [`crate::Machine`] needs to start (constant
/// pool, entry point, global count). Build one with
/// [`DecodedProgram::decode`] — or let [`crate::Machine::new`] do it —
/// and share it across runs via [`crate::Machine::from_decoded`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub(crate) ops: Vec<DecodedOp>,
    pub(crate) funcs: Vec<FuncInfo>,
    pub(crate) entry: FuncId,
    pub(crate) constants: Vec<Const>,
    pub(crate) n_globals: u32,
    pub(crate) stats: DecodeStats,
    pub(crate) n_ic_sites: u32,
}

/// True for the register-only predicates the decoder may fuse with a
/// following branch. (Correctness would allow any primitive — the
/// fused handler composes the plain ones — but the catalogue sticks to
/// cheap compare-style ops so the fused slot stays branch-like.)
fn fusible_predicate(p: Prim) -> bool {
    use Prim::*;
    matches!(
        p,
        IsZero
            | IsPositive
            | IsNegative
            | IsEven
            | IsOdd
            | NumEq
            | Lt
            | Le
            | Gt
            | Ge
            | IsEq
            | IsEqv
            | Not
            | IsPair
            | IsNull
            | IsSymbol
            | IsNumber
            | IsBoolean
            | IsProcedure
            | IsVector
            | IsString
            | IsChar
    )
}

/// Decodes one instruction (no fusion). `base` is the function's first
/// absolute pc; `len` its source length — intra-function targets are
/// rebased and clamped to the end sentinel. `next_ic` hands out
/// inline-cache site indices to through-`cp` call sites in decode
/// order.
fn decode_one(instr: &Instr, base: u32, len: u32, next_ic: &mut u32) -> DecodedOp {
    let abs = |t: u32| base + t.min(len);
    let mut take_ic = || {
        let ic = *next_ic;
        *next_ic += 1;
        ic
    };
    match instr {
        Instr::LoadImm { dst, imm } => DecodedOp::Imm {
            dst: *dst,
            imm: *imm,
        },
        Instr::LoadConst { dst, idx } => DecodedOp::Const {
            dst: *dst,
            idx: *idx,
        },
        Instr::Mov { dst, src } => DecodedOp::Mov {
            dst: *dst,
            src: *src,
        },
        Instr::StackLoad { dst, slot, class } => DecodedOp::StackLoad {
            dst: *dst,
            slot: *slot,
            class: *class,
        },
        Instr::StackStore { slot, src, class } => DecodedOp::StackStore {
            slot: *slot,
            src: *src,
            class: *class,
        },
        Instr::Prim { op, dst, args } => DecodedOp::Prim {
            op: *op,
            dst: *dst,
            args: PrimArgs::from_slice(args),
        },
        Instr::Jump { target } => DecodedOp::Jump {
            target: abs(*target),
        },
        Instr::BranchFalse {
            src,
            target,
            likely,
        } => DecodedOp::Branch {
            src: *src,
            target: abs(*target),
            likely: *likely,
            on_true: false,
        },
        Instr::BranchTrue {
            src,
            target,
            likely,
        } => DecodedOp::Branch {
            src: *src,
            target: abs(*target),
            likely: *likely,
            on_true: true,
        },
        Instr::Call {
            target,
            frame_advance,
        } => match target {
            CallTarget::Func(id) => DecodedOp::CallStatic {
                callee: *id,
                frame_advance: *frame_advance,
            },
            CallTarget::ClosureCp => DecodedOp::CallClosure {
                frame_advance: *frame_advance,
                ic: take_ic(),
            },
        },
        Instr::TailCall { target } => match target {
            CallTarget::Func(id) => DecodedOp::TailCallStatic { callee: *id },
            CallTarget::ClosureCp => DecodedOp::TailCallClosure { ic: take_ic() },
        },
        Instr::Return => DecodedOp::Return,
        Instr::AllocClosure { dst, func, n_free } => DecodedOp::AllocClosure {
            dst: *dst,
            func: *func,
            n_free: *n_free,
        },
        Instr::ClosureSlotSet { clo, index, src } => DecodedOp::ClosureSlotSet {
            clo: *clo,
            index: *index,
            src: *src,
        },
        Instr::LoadFree { dst, index } => DecodedOp::LoadFree {
            dst: *dst,
            index: *index,
        },
        Instr::LoadGlobal { dst, index } => DecodedOp::LoadGlobal {
            dst: *dst,
            index: *index,
        },
        Instr::StoreGlobal { index, src } => DecodedOp::StoreGlobal {
            index: *index,
            src: *src,
        },
        Instr::Swap { a, b } => DecodedOp::Swap { a: *a, b: *b },
        Instr::Permi { regs, perm } => DecodedOp::Permi {
            args: PermiArgs::from_parts(regs, perm),
        },
        Instr::Halt => DecodedOp::Halt,
    }
}

/// Fuses the plain decodings `(a, b)` when they match a [`FusionKind`]
/// template.
fn fuse_pair(a: DecodedOp, b: DecodedOp) -> Option<(FusionKind, DecodedOp)> {
    use DecodedOp as D;
    Some(match (a, b) {
        (
            D::Prim { op, dst, args },
            D::Branch {
                src,
                target,
                likely,
                on_true,
            },
        ) if fusible_predicate(op) => (
            FusionKind::CmpBranch,
            D::CmpBranch {
                op,
                dst,
                args,
                src,
                target,
                likely,
                on_true,
            },
        ),
        (
            D::StackLoad {
                dst: dst1,
                slot: slot1,
                class: class1,
            },
            D::StackLoad {
                dst: dst2,
                slot: slot2,
                class: class2,
            },
        ) => (
            FusionKind::LoadLoad,
            D::LoadLoad {
                dst1,
                slot1,
                class1,
                dst2,
                slot2,
                class2,
            },
        ),
        (
            D::StackStore {
                slot: slot1,
                src: src1,
                class: class1,
            },
            D::StackStore {
                slot: slot2,
                src: src2,
                class: class2,
            },
        ) => (
            FusionKind::StoreStore,
            D::StoreStore {
                slot1,
                src1,
                class1,
                slot2,
                src2,
                class2,
            },
        ),
        (
            D::Mov {
                dst: dst1,
                src: src1,
            },
            D::Mov {
                dst: dst2,
                src: src2,
            },
        ) => (
            FusionKind::MovMov,
            D::MovMov {
                dst1,
                src1,
                dst2,
                src2,
            },
        ),
        (
            D::Mov {
                dst: dst1,
                src: src1,
            },
            D::Imm {
                dst: dst2,
                imm: imm2,
            },
        ) => (
            FusionKind::MovImm,
            D::MovImm {
                dst1,
                src1,
                dst2,
                imm2,
            },
        ),
        _ => return None,
    })
}

/// Fuses the plain decodings `(a, b, c)` when they match a
/// [`TripleKind`] template. No template transfers control, so — as
/// with pairs — fusion needs no control-flow analysis.
fn fuse_triple(a: DecodedOp, b: DecodedOp, c: DecodedOp) -> Option<(TripleKind, DecodedOp)> {
    use DecodedOp as D;
    Some(match (a, b, c) {
        (
            D::Prim {
                op,
                dst: dst1,
                args,
            },
            D::StackStore {
                slot: slot2,
                src: src2,
                class: class2,
            },
            D::Mov {
                dst: dst3,
                src: src3,
            },
        ) => (
            TripleKind::PrimStoreMov,
            D::PrimStoreMov {
                op,
                dst1,
                args,
                slot2,
                src2,
                class2,
                dst3,
                src3,
            },
        ),
        (
            D::StackLoad {
                dst: dst1,
                slot: slot1,
                class: class1,
            },
            D::StackLoad {
                dst: dst2,
                slot: slot2,
                class: class2,
            },
            D::StackLoad {
                dst: dst3,
                slot: slot3,
                class: class3,
            },
        ) => (
            TripleKind::LoadLoadLoad,
            D::LoadLoadLoad {
                dst1,
                slot1,
                class1,
                dst2,
                slot2,
                class2,
                dst3,
                slot3,
                class3,
            },
        ),
        (
            D::Mov {
                dst: dst1,
                src: src1,
            },
            D::Imm {
                dst: dst2,
                imm: imm2,
            },
            D::Prim {
                op,
                dst: dst3,
                args,
            },
        ) => (
            TripleKind::MovImmPrim,
            D::MovImmPrim {
                dst1,
                src1,
                dst2,
                imm2,
                op,
                dst3,
                args,
            },
        ),
        (
            D::StackStore {
                slot: slot1,
                src: src1,
                class: class1,
            },
            D::StackStore {
                slot: slot2,
                src: src2,
                class: class2,
            },
            D::StackStore {
                slot: slot3,
                src: src3,
                class: class3,
            },
        ) => (
            TripleKind::StoreStoreStore,
            D::StoreStoreStore {
                slot1,
                src1,
                class1,
                slot2,
                src2,
                class2,
                slot3,
                src3,
                class3,
            },
        ),
        _ => return None,
    })
}

impl DecodedProgram {
    /// Decodes a linked program — see the module docs for the layout.
    ///
    /// # Panics
    ///
    /// Panics on a primitive with more than [`MAX_DECODED_ARGS`]
    /// operands — codegen never emits one and `verify_bytecode`
    /// rejects such programs.
    pub fn decode(program: &VmProgram) -> DecodedProgram {
        let mut ops = Vec::with_capacity(program.code_size() + program.funcs.len());
        let mut funcs = Vec::with_capacity(program.funcs.len());
        let mut stats = DecodeStats::default();
        let mut next_ic = 0u32;
        for f in &program.funcs {
            let base = ops.len() as u32;
            let len = f.code.len() as u32;
            stats.source_instructions += u64::from(len);
            ops.extend(
                f.code
                    .iter()
                    .map(|instr| decode_one(instr, base, len, &mut next_ic)),
            );
            // Greedy left-to-right fusion over the plain decodings,
            // preferring a triple over a pair at the same position. Only
            // the head slot is replaced: the slots after it keep their
            // plain decodings, so a branch landing mid-pair or
            // mid-triple behaves exactly as before.
            let mut i = base as usize;
            while i < ops.len() {
                if let Some((kind, op)) = ops
                    .get(i..i + 3)
                    .and_then(|t| fuse_triple(t[0], t[1], t[2]))
                {
                    stats.fused_triples += 1;
                    stats.fused_by_triple[kind as usize] += 1;
                    ops[i] = op;
                    i += 3;
                } else if let Some((kind, op)) =
                    ops.get(i..i + 2).and_then(|p| fuse_pair(p[0], p[1]))
                {
                    stats.fused_pairs += 1;
                    stats.fused_by_kind[kind as usize] += 1;
                    ops[i] = op;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            ops.push(DecodedOp::FuncEnd);
            funcs.push(FuncInfo {
                name: f.name.clone(),
                base,
                code_len: len,
                frame_size: f.frame_size,
                n_incoming: f.n_incoming,
                syntactic_leaf: f.syntactic_leaf,
                call_inevitable: f.call_inevitable,
            });
        }
        stats.decoded_ops = ops.len() as u64;
        DecodedProgram {
            ops,
            funcs,
            entry: program.entry,
            constants: program.constants.clone(),
            n_globals: program.n_globals,
            stats,
            n_ic_sites: next_ic,
        }
    }

    /// The flat op array.
    pub fn ops(&self) -> &[DecodedOp] {
        &self.ops
    }

    /// Per-function metadata, indexed by [`FuncId`].
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// Looks up one function's metadata.
    pub fn func(&self, id: FuncId) -> &FuncInfo {
        &self.funcs[id.index()]
    }

    /// The entry function.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// What decoding did (the `vm.dispatch.*` counters).
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Number of through-`cp` call sites (the executor sizes its
    /// inline-cache array from this).
    pub fn n_ic_sites(&self) -> u32 {
        self.n_ic_sites
    }

    /// Every through-`cp` call site as `(pc, ic, is_tail)`, in pc
    /// order. This walks the flat array rather than re-deriving sites
    /// from source, so it covers every site — including slots adjacent
    /// to fused pairs and triples — and is guaranteed to agree with
    /// [`DecodedProgram::n_ic_sites`]. The `lesgsc dis --decoded`
    /// listing renders this table so no site annotation can be lost to
    /// fusion.
    pub fn ic_sites(&self) -> Vec<(u32, u32, bool)> {
        let mut sites: Vec<(u32, u32, bool)> = self
            .ops
            .iter()
            .enumerate()
            .filter_map(|(pc, op)| match *op {
                DecodedOp::CallClosure { ic, .. } => Some((pc as u32, ic, false)),
                DecodedOp::TailCallClosure { ic } => Some((pc as u32, ic, true)),
                _ => None,
            })
            .collect();
        debug_assert_eq!(sites.len() as u32, self.n_ic_sites);
        sites.sort_by_key(|&(_, ic, _)| ic);
        sites
    }

    /// Renders the decoded layout — function table, per-op listing,
    /// and the absolute jump-target table. This is the golden-fixture
    /// format of `tests/decoded_fixtures.rs`: deterministic, and
    /// line-diffable when codegen or the fusion catalogue changes.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let s = self.stats;
        let by_kind = FusionKind::ALL
            .iter()
            .map(|&k| format!("{} {}", k.key(), s.fused(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let by_triple = TripleKind::ALL
            .iter()
            .map(|&k| format!("{} {}", k.key(), s.fused3(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "source_instructions {} decoded_ops {} fused_pairs {} ({by_kind}) \
             fused_triples {} ({by_triple}) ic_sites {}",
            s.source_instructions, s.decoded_ops, s.fused_pairs, s.fused_triples, self.n_ic_sites
        );
        for (i, f) in self.funcs.iter().enumerate() {
            let _ = writeln!(
                out,
                "f{i} ({}): base {} len {} frame {}",
                f.name, f.base, f.code_len, f.frame_size
            );
        }
        let _ = writeln!(out, "jump targets:");
        for (pc, op) in self.ops.iter().enumerate() {
            if let Some(t) = op.jump_target() {
                let _ = writeln!(out, "  @{pc} -> @{t}");
            }
        }
        out
    }

    /// Renders a full disassembly of the decoded array (diagnostics).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, f) in self.funcs.iter().enumerate() {
            let _ = writeln!(out, "f{i} ({}): base {} len {}", f.name, f.base, f.code_len);
            let end = f.base + f.code_len;
            for pc in f.base..=end {
                let _ = writeln!(out, "  {pc:4}: {}", self.ops[pc as usize]);
            }
        }
        out
    }
}
