//! Pins the arena/scratch contract with a counting global allocator: the
//! pooled analysis phases must stop touching the heap entirely once their
//! scratch is warm, and the pooled full pipeline must allocate far less
//! than the unpooled one while producing bit-identical output.
//!
//! This file is its own crate (integration tests always are), so the
//! workspace-wide `#![forbid(unsafe_code)]` on the library crates does not
//! apply; the one `unsafe impl` below is the standard delegating
//! `GlobalAlloc` wrapper around [`System`].
//!
//! Counters are thread-local, so the concurrent tests in this binary
//! (each on its own harness thread) never pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pdgc_analysis::{Cfg, Liveness};
use pdgc_core::build::build_ifg_in;
use pdgc_core::cpg::Cpg;
use pdgc_core::ifg::InterferenceGraph;
use pdgc_core::lower::lower_abi;
use pdgc_core::node::{NodeId, NodeMap};
use pdgc_core::pipeline::{analyze, class_ctx_for_round_in};
use pdgc_core::rpg::{build_rpg, PreferenceSet, Rpg};
use pdgc_core::select::{select_traced_in, SelectConfig, SelectScratch};
use pdgc_core::simplify::{simplify, SimplifyMode};
use pdgc_core::{CheckMode, CheckScope, PhaseScratch, PreferenceAllocator, RegisterAllocator};
use pdgc_ir::{BinOp, Function, FunctionBuilder, RegClass};
use pdgc_obs::NoopTracer;
use pdgc_target::{PhysReg, PressureModel, TargetDesc};

struct CountingAlloc;

thread_local! {
    // const-init: reading the counter from inside `alloc` never triggers a
    // lazy initializer (which could itself allocate and recurse).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocs) made by `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

fn bench_function() -> Function {
    let profiles = pdgc_workloads::specjvm_suite();
    let mut w = pdgc_workloads::generate(&profiles[0]);
    w.funcs.swap_remove(0)
}

/// One liveness + node-map + interference-graph pass drawing every buffer
/// from `scratch` and returning all of them to it.
fn analysis_pass(
    func: &Function,
    cfg: &Cfg,
    target: &TargetDesc,
    pinned: &[Option<PhysReg>],
    scratch: &mut PhaseScratch,
) {
    let liveness = Liveness::compute_in(func, cfg, &mut scratch.liveness);
    let nodes = NodeMap::build_in(func, target, RegClass::Int, pinned, &mut scratch.node);
    let ifg = build_ifg_in(func, &liveness, &nodes, &mut scratch.ifg, &mut scratch.build);
    ifg.recycle(&mut scratch.ifg);
    nodes.recycle(&mut scratch.node);
    liveness.recycle(&mut scratch.liveness);
}

#[test]
fn warm_analysis_phases_make_zero_heap_allocations() {
    let func = bench_function();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let cfg = Cfg::compute(&func);
    let pinned: Vec<Option<PhysReg>> = vec![None; func.num_vregs()];
    let mut scratch = PhaseScratch::new();

    // Warm-up: the pools grow to the function's high-water marks here.
    analysis_pass(&func, &cfg, &target, &pinned, &mut scratch);
    analysis_pass(&func, &cfg, &target, &pinned, &mut scratch);

    let (allocs, ()) = count_allocs(|| {
        for _ in 0..5 {
            analysis_pass(&func, &cfg, &target, &pinned, &mut scratch);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm liveness/node/IFG passes must not touch the heap"
    );
}

#[test]
fn pooled_pipeline_allocates_a_fraction_of_the_unpooled_one() {
    let func = bench_function();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let mut scratch = PhaseScratch::new();
    let mut tracer = NoopTracer;

    let run_pooled = |scratch: &mut PhaseScratch, tracer: &mut NoopTracer| {
        alloc
            .allocate_scratch(
                &func,
                &target,
                tracer,
                CheckMode::Off,
                CheckScope::Full,
                scratch,
            )
            .expect("allocation succeeds")
    };

    // Warm-up run grows the pools; it is not measured.
    let warm = run_pooled(&mut scratch, &mut tracer);

    let (pooled, pooled_out) = count_allocs(|| run_pooled(&mut scratch, &mut tracer));
    let (fresh, fresh_out) = count_allocs(|| {
        alloc
            .allocate_scratch(
                &func,
                &target,
                &mut tracer,
                CheckMode::Off,
                CheckScope::Full,
                &mut PhaseScratch::default(),
            )
            .unwrap()
    });

    // Pooling must not change the allocation: same stats, same rewrite.
    assert_eq!(warm.stats, fresh_out.stats);
    assert_eq!(pooled_out.stats, fresh_out.stats);
    assert_eq!(
        format!("{}", pooled_out.mach),
        format!("{}", fresh_out.mach)
    );

    // The steady-state pooled pipeline still heap-allocates parts of its
    // *results* (the lowered function, name/signature strings) but none of
    // its scratch; require a decisive reduction so a regression that
    // quietly drops a pool from the reuse path fails loudly.
    assert!(
        pooled * 2 <= fresh,
        "pooled pipeline made {pooled} allocations vs {fresh} unpooled — scratch reuse regressed"
    );
}

#[test]
fn recycling_results_cuts_warm_run_allocations_further() {
    let func = bench_function();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let mut tracer = NoopTracer;

    let run = |scratch: &mut PhaseScratch, tracer: &mut NoopTracer| {
        alloc
            .allocate_scratch(
                &func,
                &target,
                tracer,
                CheckMode::Off,
                CheckScope::Full,
                scratch,
            )
            .expect("allocation succeeds")
    };

    // Baseline: warm scratch pools, but every run's results are dropped,
    // so the assignment vector and machine-code block storage are fresh
    // heap allocations each time.
    let mut dropped = PhaseScratch::new();
    let baseline_out = run(&mut dropped, &mut tracer);
    run(&mut dropped, &mut tracer);
    let (unrecycled, _) = count_allocs(|| run(&mut dropped, &mut tracer));

    // Recycled: each run returns its output's buffers to the pools, so
    // the next run's results reuse their capacity.
    let mut recycled = PhaseScratch::new();
    run(&mut recycled, &mut tracer).recycle(&mut recycled);
    run(&mut recycled, &mut tracer).recycle(&mut recycled);
    let (with_recycle, out) = count_allocs(|| run(&mut recycled, &mut tracer));

    // Recycling must not change the allocation.
    assert_eq!(out.stats, baseline_out.stats);
    assert_eq!(format!("{}", out.mach), format!("{}", baseline_out.mach));
    out.recycle(&mut recycled);

    // The recycled buffers are one assignment vector plus one Vec<MInst>
    // per block (the bench function has ~60 blocks, measured gap ~67
    // allocations); pin roughly half that so the assertion fails loudly if
    // recycling silently stops feeding the pools, yet survives a workload
    // regeneration that changes the block count.
    assert!(
        with_recycle + 30 <= unrecycled,
        "recycled warm run made {with_recycle} allocations vs {unrecycled} without recycling — \
         result recycling regressed"
    );
}

/// Runs select twice from one scratch (recycling the first result in
/// between) and asserts the second run touches the heap zero times and
/// reproduces the first run's assignment and spills. Returns the spills.
#[allow(clippy::too_many_arguments)]
fn assert_warm_select_allocation_free(
    ifg: &InterferenceGraph,
    nodes: &NodeMap,
    rpg: &Rpg,
    cpg: &Cpg,
    target: &TargetDesc,
    no_spill: &[bool],
    spill_costs: &[u64],
) -> Vec<NodeId> {
    let mut scratch = SelectScratch::new();
    let run = |scratch: &mut SelectScratch| {
        select_traced_in(
            ifg,
            nodes,
            rpg,
            cpg,
            target,
            no_spill,
            spill_costs,
            SelectConfig::default(),
            1,
            &mut NoopTracer,
            scratch,
        )
    };
    let first = run(&mut scratch);
    let (assignment, spilled) = (first.assignment.clone(), first.spilled.clone());
    first.recycle(&mut scratch);
    let (allocs, second) = count_allocs(|| run(&mut scratch));
    assert_eq!(allocs, 0, "a warm select must not touch the heap");
    assert_eq!(second.assignment, assignment);
    assert_eq!(second.spilled, spilled);
    second.recycle(&mut scratch);
    spilled
}

#[test]
fn warm_select_without_a_free_register_makes_zero_heap_allocations() {
    // K4 on three registers: one node finds every register taken and
    // spills on the no-register path.
    let mut b = FunctionBuilder::new("k4", vec![], None);
    let base = b.iconst(0);
    let vs: Vec<_> = (0..3).map(|i| b.load(base, 128 + 16 * i)).collect();
    for &v in &vs {
        b.store(v, base, 0);
    }
    b.ret(None);
    let func = b.finish();
    let target = TargetDesc::figure7();
    let nodes = NodeMap::build(&func, &target, RegClass::Int, &vec![None; func.num_vregs()]);
    let mut ifg = InterferenceGraph::new(nodes.num_nodes(), nodes.num_phys());
    for (a, c) in [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)] {
        ifg.add_edge(NodeId::new(a), NodeId::new(c));
    }
    let costs = vec![10u64; nodes.num_nodes()];
    let sr = simplify(&mut ifg, 3, &costs, SimplifyMode::Optimistic);
    ifg.restore_all();
    let cpg = Cpg::build(&ifg, &sr.stack, &sr.optimistic, 3);
    let rpg = Rpg::new(nodes.num_nodes());
    let no_spill = vec![false; nodes.num_nodes()];
    let spilled =
        assert_warm_select_allocation_free(&ifg, &nodes, &rpg, &cpg, &target, &no_spill, &[]);
    assert_eq!(spilled.len(), 1, "K4 on 3 registers spills exactly one node");
}

#[test]
fn warm_select_on_a_spilling_tight8_class_makes_zero_heap_allocations() {
    // Twenty loads live at once against tight8's small integer file, with
    // a call in the middle so volatility preferences apply too.
    let mut b = FunctionBuilder::new("wide", vec![RegClass::Int], Some(RegClass::Int));
    let base = b.param(0);
    let vs: Vec<_> = (0..20).map(|i| b.load(base, 8 * i)).collect();
    b.call("g", vec![vs[0], vs[1]], None);
    let sum = vs[1..].iter().fold(vs[0], |acc, &v| b.bin(BinOp::Add, acc, v));
    b.ret(Some(sum));
    let func = b.finish();
    let target = TargetDesc::tight8();
    let lowered = lower_abi(&func, &target).expect("lowers");
    let analyses = analyze(&lowered.func);
    let no_spill_vregs = vec![false; lowered.func.num_vregs()];
    let mut phase = PhaseScratch::new();
    let mut ctx = class_ctx_for_round_in(
        &lowered,
        &target,
        RegClass::Int,
        &analyses,
        &no_spill_vregs,
        1,
        &mut phase,
    );
    let rpg = build_rpg(
        ctx.func,
        &ctx.nodes,
        &ctx.cost_model(&analyses),
        &ctx.copies,
        PreferenceSet::full(),
        &target,
    );
    let sr = simplify(&mut ctx.ifg, ctx.k, &ctx.spill_costs, SimplifyMode::Optimistic);
    ctx.ifg.restore_all();
    let cpg = Cpg::build(&ctx.ifg, &sr.stack, &sr.optimistic, ctx.k);
    let spilled = assert_warm_select_allocation_free(
        &ctx.ifg,
        &ctx.nodes,
        &rpg,
        &cpg,
        &target,
        &ctx.no_spill,
        &ctx.spill_costs,
    );
    assert!(!spilled.is_empty(), "twenty live values must spill on tight8");
}
