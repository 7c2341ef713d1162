//! Whole-catalogue test for the fusion jump-target invariant.
//!
//! For **every** pair template in [`FusionKind`] and every triple
//! template in [`TripleKind`], this builds a synthetic program in which
//! each later slot of the fused group (the pair's second half, the
//! triple's second and third parts) is a branch target once, then
//! checks the two halves of the contract:
//!
//! 1. each later slot keeps its **plain** decoding: it is identical to
//!    the same instruction decoded between non-fusable neighbours, so a
//!    branch landing mid-group executes exactly the original
//!    instruction; and
//! 2. the decoded engine's outcome — value, output, and every counter —
//!    matches the classic engine's, which never fuses at all.
//!
//! A regression that fused a later slot, or re-executed the head after
//! a mid-group landing, breaks the stats equality even when the final
//! value happens to agree.

use lesgs_frontend::Prim;
use lesgs_ir::machine::{arg_reg, scratch_reg, RV};
use lesgs_vm::{
    ClassicMachine, CostModel, DecodedProgram, FusionKind, Imm, Instr, Machine, SlotClass,
    TripleKind, VmFunc, VmProgram,
};

/// The template a case exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Template {
    Pair(FusionKind),
    Triple(TripleKind),
}

/// One per-template case: the setup that feeds the group, the group
/// itself (two or three instructions), and the tail that folds its
/// effects into `rv`. The group's later parts must be idempotent under
/// re-execution, because the harness lands on each later slot once.
struct Case {
    template: Template,
    setup: Vec<Instr>,
    group: Vec<Instr>,
    finish: Vec<Instr>,
    expect: &'static str,
}

fn imm(dst: lesgs_ir::Reg, n: i64) -> Instr {
    Instr::LoadImm {
        dst,
        imm: Imm::Fixnum(n),
    }
}

fn add(dst: lesgs_ir::Reg, x: lesgs_ir::Reg, y: lesgs_ir::Reg) -> Instr {
    Instr::Prim {
        op: Prim::Add,
        dst,
        args: vec![x, y],
    }
}

fn load(dst: lesgs_ir::Reg, slot: u32) -> Instr {
    Instr::StackLoad {
        dst,
        slot,
        class: SlotClass::Temp,
    }
}

fn store(slot: u32, src: lesgs_ir::Reg) -> Instr {
    Instr::StackStore {
        slot,
        src,
        class: SlotClass::Temp,
    }
}

fn mov(dst: lesgs_ir::Reg, src: lesgs_ir::Reg) -> Instr {
    Instr::Mov { dst, src }
}

/// One case per pair template, in catalogue order. Registers: `a`/`b`
/// are inputs, `c`/`d` the pair's destinations.
fn pair_cases() -> Vec<Case> {
    let (a, b, c, d) = (arg_reg(0), arg_reg(1), arg_reg(2), arg_reg(3));
    let case = |kind, setup, group, finish, expect| Case {
        template: Template::Pair(kind),
        setup,
        group,
        finish,
        expect,
    };
    vec![
        // `brfalse` on a true predicate falls through both times the
        // branch executes (fused, then landed-on).
        case(
            FusionKind::CmpBranch,
            vec![imm(a, 3), imm(b, 5)],
            vec![
                Instr::Prim {
                    op: Prim::Lt,
                    dst: c,
                    args: vec![a, b],
                },
                Instr::BranchFalse {
                    src: c,
                    // Patched by `build_program` to the finish label.
                    target: u32::MAX,
                    likely: None,
                },
            ],
            vec![add(RV, a, b)],
            "8",
        ),
        case(
            FusionKind::LoadLoad,
            vec![imm(a, 3), imm(b, 5), store(0, a), store(1, b)],
            vec![load(c, 0), load(d, 1)],
            vec![add(RV, c, d)],
            "8",
        ),
        case(
            FusionKind::StoreStore,
            vec![imm(a, 3), imm(b, 5)],
            vec![store(0, a), store(1, b)],
            vec![load(c, 0), load(d, 1), add(RV, c, d)],
            "8",
        ),
        case(
            FusionKind::MovMov,
            vec![imm(a, 3), imm(b, 5)],
            vec![mov(c, a), mov(d, b)],
            vec![add(RV, c, d)],
            "8",
        ),
        case(
            FusionKind::MovImm,
            vec![imm(a, 3)],
            vec![mov(c, a), imm(d, 9)],
            vec![add(RV, c, d)],
            "12",
        ),
    ]
}

/// One case per triple template, in catalogue order.
fn triple_cases() -> Vec<Case> {
    let (a, b, c, d) = (arg_reg(0), arg_reg(1), arg_reg(2), arg_reg(3));
    let case = |kind, setup, group, finish, expect| Case {
        template: Template::Triple(kind),
        setup,
        group,
        finish,
        expect,
    };
    vec![
        case(
            TripleKind::PrimStoreMov,
            vec![imm(a, 3), imm(b, 5)],
            vec![add(c, a, b), store(0, c), mov(d, a)],
            vec![load(c, 0), add(RV, c, d)],
            "11",
        ),
        case(
            TripleKind::LoadLoadLoad,
            vec![
                imm(a, 3),
                store(0, a),
                imm(b, 5),
                store(1, b),
                imm(a, 7),
                store(2, a),
            ],
            vec![load(c, 0), load(d, 1), load(b, 2)],
            vec![add(RV, c, d), add(RV, RV, b)],
            "15",
        ),
        case(
            TripleKind::MovImmPrim,
            vec![imm(a, 3)],
            vec![mov(c, a), imm(d, 9), add(RV, c, d)],
            vec![],
            "12",
        ),
        case(
            TripleKind::StoreStoreStore,
            vec![imm(a, 3), imm(b, 5)],
            vec![store(0, a), store(1, b), store(2, a)],
            vec![
                load(c, 0),
                load(d, 1),
                add(RV, c, d),
                load(c, 2),
                add(RV, RV, c),
            ],
            "11",
        ),
    ]
}

/// A single-function program over `code` with a four-slot frame.
fn program(code: Vec<Instr>) -> VmProgram {
    VmProgram {
        funcs: vec![VmFunc {
            id: lesgs_frontend::FuncId(0),
            name: "entry".into(),
            code,
            frame_size: 4,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        }],
        entry: lesgs_frontend::FuncId(0),
        constants: vec![],
        n_globals: 0,
    }
}

/// Builds the harness around one case and returns the program plus the
/// source index of the group's head. With `separated`, both `jump`
/// separators below are emitted; without, the group abuts the guard
/// setup and the landing code, so its neighbours compete for its slots:
///
/// ```text
/// setup…
/// g1 <- 0 …                  ; one guard per later slot
/// jump first                 ; separator: `jump` appears in no
///                            ; template, so greedy scanning always
///                            ; aligns on the group's first op
/// first:  group[0]
///         group[1..]         ; each a branch target once
/// jump next                  ; separator: nothing fuses past the group
/// t  <- zero?(g1)
/// g1 <- 1
/// brtrue t -> group[1]       ; lands mid-group
/// …                          ; and likewise for group[2]
/// finish…
/// halt
/// ```
fn build_program(case: &Case, separated: bool) -> (VmProgram, usize) {
    let t = scratch_reg(2);
    let later = case.group.len() - 1;
    let guards: Vec<_> = (0..later).map(scratch_reg).collect();
    let mut code = case.setup.clone();
    code.extend(guards.iter().map(|&g| imm(g, 0)));
    if separated {
        code.push(Instr::Jump {
            target: code.len() as u32 + 1,
        });
    }
    let first = code.len();
    code.extend(case.group.iter().cloned());
    if separated {
        code.push(Instr::Jump {
            target: code.len() as u32 + 1,
        });
    }
    for (k, &guard) in guards.iter().enumerate() {
        code.push(Instr::Prim {
            op: Prim::IsZero,
            dst: t,
            args: vec![guard],
        });
        code.push(imm(guard, 1));
        code.push(Instr::BranchTrue {
            src: t,
            target: (first + 1 + k) as u32,
            likely: None,
        });
    }
    // Patch a forward branch inside the group to the finish label.
    let finish_label = code.len() as u32;
    for instr in &mut code[first..first + case.group.len()] {
        if let Instr::BranchFalse { target, .. } = instr {
            if *target == u32::MAX {
                *target = finish_label;
            }
        }
    }
    code.extend(case.finish.iter().cloned());
    code.push(Instr::Halt);
    (program(code), first)
}

/// Decodes `p` with every instruction but the one at `slot` replaced by
/// a fall-through `jump`, which no template contains: the op at `slot`
/// is then its plain decoding, at the same pc with the same branch
/// rebasing as in `p`.
fn decode_isolated(p: &VmProgram, slot: usize) -> DecodedProgram {
    let code = p.funcs[0]
        .code
        .iter()
        .enumerate()
        .map(|(i, instr)| {
            if i == slot {
                instr.clone()
            } else {
                Instr::Jump {
                    target: i as u32 + 1,
                }
            }
        })
        .collect();
    let isolated = DecodedProgram::decode(&program(code));
    let s = isolated.stats();
    assert_eq!((s.fused_pairs, s.fused_triples), (0, 0), "harness fused");
    isolated
}

/// Runs one case, laid out with or without separators, and applies the
/// invariant checks. Separated, the case's own template must fuse and
/// fire. Without separators the head still fuses, but the greedy scan
/// may pick a longer template that reaches into the landing code (the
/// MovImm pair and the `zero?` after it make a MovImmPrim triple).
fn check_case(case: &Case, separated: bool) {
    let template = case.template;
    let (p, first) = build_program(case, separated);
    let decoded = DecodedProgram::decode(&p);
    let stats = decoded.stats();
    let fused = match template {
        Template::Pair(kind) => stats.fused(kind),
        Template::Triple(kind) => stats.fused3(kind),
    };
    assert!(
        fused >= 1 || !separated,
        "{template:?}: group did not fuse\n{}",
        decoded.disassemble()
    );
    assert_ne!(
        decoded.ops()[first],
        decode_isolated(&p, first).ops()[first],
        "{template:?}: first slot should hold a fused op\n{}",
        decoded.disassemble()
    );
    // The invariant under test: every later slot — a branch target —
    // keeps its plain decoding.
    for slot in first + 1..first + case.group.len() {
        assert_eq!(
            decoded.ops()[slot],
            decode_isolated(&p, slot).ops()[slot],
            "{template:?}: jump-target slot {slot} must decode unfused\n{}",
            decoded.disassemble()
        );
    }

    // Mid-group landings are observably equivalent: value, output, and
    // every counter match the never-fusing classic engine.
    let out = Machine::from_decoded(&decoded, CostModel::alpha_like())
        .run()
        .unwrap_or_else(|e| panic!("{template:?}: decoded run failed: {e}"));
    let classic = ClassicMachine::new(&p, CostModel::alpha_like())
        .run()
        .unwrap_or_else(|e| panic!("{template:?}: classic run failed: {e}"));
    assert_eq!(out.value, case.expect, "{template:?}");
    assert_eq!(out.value, classic.value, "{template:?}");
    assert_eq!(out.output, classic.output, "{template:?}");
    assert_eq!(out.stats, classic.stats, "{template:?}: counter divergence");
    let fired = match template {
        Template::Pair(kind) => out.dispatch.fused(kind),
        Template::Triple(kind) => out.dispatch.fused3(kind),
    };
    assert!(
        fired >= 1 || !separated,
        "{template:?}: fused handler never ran"
    );
}

/// Every pair template: the pair fuses, the landed-on second half stays
/// plain, outcomes match classic exactly.
#[test]
fn every_template_keeps_its_jump_target_fallback() {
    let cases = pair_cases();
    // The harness is itself under test: make sure it covers the whole
    // catalogue, so a new template cannot ship without a case here.
    let covered: Vec<Template> = cases.iter().map(|c| c.template).collect();
    let all: Vec<Template> = FusionKind::ALL.map(Template::Pair).to_vec();
    assert_eq!(covered, all, "catalogue coverage gap");
    for case in &cases {
        check_case(case, true);
    }
}

/// Every triple template: the triple fuses, both landed-on later slots
/// stay plain, outcomes match classic exactly.
#[test]
fn every_triple_template_keeps_its_jump_target_fallbacks() {
    let cases = triple_cases();
    let covered: Vec<Template> = cases.iter().map(|c| c.template).collect();
    let all: Vec<Template> = TripleKind::ALL.map(Template::Triple).to_vec();
    assert_eq!(covered, all, "catalogue coverage gap");
    for case in &cases {
        check_case(case, true);
    }
}

/// The pair cases without separators: the pair abuts the guard setup
/// before it and the landing code after it, so the greedy scan may
/// fuse a neighbour into the group. Whatever fuses at the head, the
/// landed-on second half stays plain and the run matches classic.
#[test]
fn generated_table_keeps_its_jump_target_fallback() {
    for case in &pair_cases() {
        check_case(case, false);
    }
}

/// The triple cases without separators, where pair templates may also
/// claim slots next to the triple. Whatever fuses at the head, both
/// landed-on later slots stay plain and the run matches classic.
#[test]
fn generated_triple_table_keeps_its_jump_target_fallbacks() {
    for case in &triple_cases() {
        check_case(case, false);
    }
}
