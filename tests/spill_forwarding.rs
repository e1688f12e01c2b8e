//! Reload forwarding over linear runs on CFGs with no loop structure.
//!
//! A *linear run* edge is one that is both its source's only exit and its
//! target's only entry. Forwarding a reloaded value along such an edge
//! (and within a block) needs nothing else from the CFG, so it also runs
//! on irreducible functions. Both fixtures here have a cycle with two
//! entries — no natural loop, no dominating header — and go through the
//! full pipeline with every allocation proven by the symbolic checker and
//! executed against the IR.

use pdgc::analysis::{Cfg, Dominators, Loops};
use pdgc::obs::Counter;
use pdgc::prelude::*;

/// Allocates `f` with the `full` preference allocator under
/// `CheckMode::Always` / `CheckScope::Full`, proves the machine code runs
/// like the IR, and returns the metrics the pipeline recorded.
fn allocate_checked_and_run(f: &Function, target: &TargetDesc) -> PhaseScratch {
    let mut scratch = PhaseScratch::default();
    let out = PreferenceAllocator::full()
        .allocate_scratch(
            f,
            target,
            &mut NoopTracer,
            CheckMode::Always,
            CheckScope::Full,
            &mut scratch,
        )
        .expect("irreducible function allocates and passes the checker");
    let args = default_args(f);
    let reference = run_ir(f, &args, DEFAULT_FUEL).expect("IR execution");
    let mach = run_mach(&out.mach, target, &args, DEFAULT_FUEL).expect("mach execution");
    check_equivalent(&reference, &mach).expect("IR/mach equivalence");
    scratch
}

/// Asserts that `f`'s CFG has no natural loop even though it has a cycle.
fn assert_no_natural_loop(f: &Function) {
    let cfg = Cfg::compute(f);
    let loops = Loops::compute(&cfg, &Dominators::compute(&cfg));
    assert!(loops.headers().is_empty(), "{}: cycle has a header", f.name);
}

/// Two distinct entries into one cycle: `entry → {a, c}`, `a ⇄ c`.
/// No block dominates the cycle, so it has no natural-loop header.
fn irreducible() -> Function {
    let mut b = FunctionBuilder::new(
        "irreducible",
        vec![RegClass::Int, RegClass::Int],
        Some(RegClass::Int),
    );
    let p = b.param(0);
    let q = b.param(1);
    let a = b.create_block();
    let c = b.create_block();
    let exit = b.create_block();
    b.branch_imm(CmpOp::Gt, p, 0, a, c);
    b.switch_to(a);
    let x = b.bin(BinOp::Add, p, q);
    b.branch_imm(CmpOp::Gt, x, 9, c, exit);
    b.switch_to(c);
    let y = b.bin(BinOp::Mul, p, q);
    b.branch_imm(CmpOp::Lt, y, 5, a, exit);
    b.switch_to(exit);
    let r = b.bin(BinOp::Add, p, q);
    b.ret(Some(r));
    let f = b.finish();
    assert!(f.verify().is_ok());
    f
}

/// The small irreducible fixture allocates through the checked pipeline
/// and runs like its IR.
#[test]
fn irreducible_cfg_allocates_through_the_checked_pipeline() {
    let f = irreducible();
    assert_no_natural_loop(&f);
    allocate_checked_and_run(&f, &TargetDesc::ia64_like(PressureModel::Middle));
}

/// An irreducible cycle (entered at `b1` and at `b3`) under more live
/// values than `tight8` has registers. `b1 → b2` is a run edge, and the
/// exit block uses every long-lived value twice, so forwarding has work
/// both across a block boundary and within a block. The counter `v14`
/// makes the cycle terminate.
const IRREDUCIBLE_UNDER_PRESSURE: &str = "
fn irreducible_under_pressure(v0: int, v1: int) -> int {
b0:
    v2 = add v0, #1
    v3 = add v1, #2
    v4 = add v0, #3
    v5 = add v1, #4
    v6 = add v0, #5
    v7 = add v1, #6
    v8 = add v0, #7
    v9 = add v1, #8
    v10 = add v0, #9
    v11 = add v1, #10
    v12 = add v0, #11
    v13 = add v1, #12
    v14 = 7
    v15 = 0
    if gt v0, #0 goto b1 else b3
b1:
    v14 = sub v14, #1
    v16 = add v2, v3
    v16 = add v16, v4
    v16 = add v16, v5
    v15 = add v15, v16
    jump b2
b2:
    v17 = add v4, v5
    v17 = add v17, v6
    v17 = add v17, v7
    v15 = add v15, v17
    if gt v14, #0 goto b3 else b4
b3:
    v14 = sub v14, #1
    v18 = add v8, v9
    v18 = add v18, v10
    v15 = add v15, v18
    if gt v14, #0 goto b1 else b4
b4:
    v19 = add v2, v3
    v19 = add v19, v4
    v19 = add v19, v5
    v19 = add v19, v6
    v19 = add v19, v7
    v19 = add v19, v8
    v19 = add v19, v9
    v19 = add v19, v10
    v19 = add v19, v11
    v19 = add v19, v12
    v19 = add v19, v13
    v19 = add v19, v2
    v19 = add v19, v3
    v19 = add v19, v4
    v19 = add v19, v5
    v19 = add v19, v6
    v19 = add v19, v7
    v19 = add v19, v8
    v19 = add v19, v9
    v19 = add v19, v10
    v19 = add v19, v11
    v19 = add v19, v12
    v19 = add v19, v13
    v19 = add v19, v15
    ret v19
}
";

/// Forwarding runs on the irreducible CFG: the allocation spills on
/// `tight8`, saves at least one reload by forwarding, and is still proven
/// by the checker and equivalent to the IR.
#[test]
fn irreducible_cfg_forwards_reloads_under_pressure() {
    let f = pdgc::ir::parse_function(IRREDUCIBLE_UNDER_PRESSURE).expect("fixture parses");
    assert!(f.verify().is_ok());
    assert_no_natural_loop(&f);
    let scratch = allocate_checked_and_run(&f, &TargetDesc::tight8());
    assert!(
        scratch.metrics.get(Counter::SpillLoads) > 0,
        "fixture must spill"
    );
    assert!(
        scratch.metrics.get(Counter::ForwardedReloads) > 0,
        "no reload forwarded on an irreducible CFG"
    );
    assert!(
        scratch.metrics.get(Counter::CheckRuns) > 0,
        "checker did not run"
    );
}
