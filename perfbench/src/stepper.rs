//! The traced run's allocator: the `full` preference allocator driven
//! stage by stage through the crates' public functions, with a clock
//! around every call.
//!
//! It mirrors `run_pipeline_scratch` with the `PreferenceAllocator::full()`
//! strategy (no pre-coalescing) and then the `Full`-scope checker, the same
//! work a `serve` miss pays. Timing from here rather than from the program's
//! `Tracer` hook keeps the allocator on its untraced path: an enabled tracer
//! makes select build one decision event per node, and the strategy's spans
//! fold CPG build into simplify and leave RPG build out. Stepping must
//! produce bit-identical machine code to the untraced run; the caller
//! compares fingerprints and fails the run otherwise.

use pdgc_check::{check_allocation_in, CheckScope};
use pdgc_core::cpg::Cpg;
use pdgc_core::lower::lower_abi;
use pdgc_core::pipeline::{
    analyze_in, class_ctx_for_round_in, recycle_class_ctx, AllocOutput, MAX_ROUNDS,
};
use pdgc_core::rewrite::rewrite_in;
use pdgc_core::rpg::{build_rpg, PreferenceSet};
use pdgc_core::select::{select_traced_in, SelectConfig};
use pdgc_core::simplify::{simplify_in, SimplifyMode};
use pdgc_core::spill::{insert_spill_code_fwd, SPL_FORWARD_MAX_ROUNDS};
use pdgc_core::{AllocStats, PhaseScratch};
use pdgc_ir::{Function, RegClass, VReg};
use pdgc_obs::NoopTracer;
use pdgc_target::{PhysReg, TargetDesc};
use std::time::Instant;

/// The timed stages, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Lower,
    Analyze,
    Build,
    Rpg,
    Simplify,
    Cpg,
    Select,
    Spill,
    Rewrite,
    Check,
}

impl Stage {
    pub const ALL: [Stage; 10] = [
        Stage::Lower,
        Stage::Analyze,
        Stage::Build,
        Stage::Rpg,
        Stage::Simplify,
        Stage::Cpg,
        Stage::Select,
        Stage::Spill,
        Stage::Rewrite,
        Stage::Check,
    ];
}

/// Per-stage self time plus the graph sizes the curve normalisations need,
/// summed over however many functions were stepped.
#[derive(Clone, Debug, Default)]
pub struct StageTotals {
    pub nanos: [u64; Stage::ALL.len()],
    /// Live-range nodes over every class-round.
    pub ifg_nodes: u64,
    /// Interference edges incident to a live range, over every class-round.
    pub ifg_edges: u64,
    pub rounds: u64,
    /// Machine instructions the checker consumed.
    pub mach_insts: u64,
}

impl StageTotals {
    pub fn ns(&self, s: Stage) -> u64 {
        self.nanos[s as usize]
    }

    fn time<T>(&mut self, s: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.nanos[s as usize] += t0.elapsed().as_nanos() as u64;
        r
    }
}

/// Allocates `func` with the `full` allocator, stage by stage, and proves
/// the result with the checker at full scope.
pub fn step_full(
    func: &Function,
    target: &TargetDesc,
    scratch: &mut PhaseScratch,
    t: &mut StageTotals,
) -> Result<AllocOutput, String> {
    let prefs = PreferenceSet::full();
    let config = SelectConfig {
        active_spill: prefs.volatility,
        nonvolatile_first: !prefs.volatility,
    };
    let mut lowered = t
        .time(Stage::Lower, || lower_abi(func, target))
        .map_err(|e| e.to_string())?;
    let mut no_spill_vregs = scratch.flags.take_filled(lowered.func.num_vregs(), false);
    let mut slots = 0u32;
    let mut stats = AllocStats::default();

    for round in 1..=MAX_ROUNDS {
        let analyses = t.time(Stage::Analyze, || {
            analyze_in(&lowered.func, &mut scratch.liveness)
        });
        let mut assignment: Vec<Option<PhysReg>> = scratch
            .assignments
            .take_filled(lowered.func.num_vregs(), None);
        let mut spilled_vregs: Vec<VReg> = scratch.vregs.take();

        for class in RegClass::ALL {
            let mut ctx = t.time(Stage::Build, || {
                class_ctx_for_round_in(
                    &lowered,
                    target,
                    class,
                    &analyses,
                    &no_spill_vregs,
                    round,
                    scratch,
                )
            });
            let phys = ctx.nodes.num_phys() as u64;
            let adjacency: u64 = ctx
                .nodes
                .all_nodes()
                .map(|n| ctx.ifg.neighbors_slice(n).len() as u64)
                .sum();
            t.ifg_nodes += ctx.nodes.num_nodes() as u64 - phys;
            // Every edge is listed at both ends; drop the precolored clique.
            t.ifg_edges += adjacency / 2 - phys * phys.saturating_sub(1) / 2;

            let mut cls = std::mem::take(&mut ctx.scratch);
            let cost = ctx.cost_model(&analyses);
            let rpg = t.time(Stage::Rpg, || {
                build_rpg(ctx.func, &ctx.nodes, &cost, &ctx.copies, prefs, target)
            });
            let sr = t.time(Stage::Simplify, || {
                let sr = simplify_in(
                    &mut ctx.ifg,
                    ctx.k,
                    &ctx.spill_costs,
                    SimplifyMode::Optimistic,
                    &mut cls.simplify,
                );
                ctx.ifg.restore_all();
                sr
            });
            let cpg = t.time(Stage::Cpg, || {
                Cpg::build_in(&ctx.ifg, &sr.stack, &sr.optimistic, ctx.k, &mut cls.cpg)
            });
            sr.recycle(&mut cls.simplify);
            let res = t.time(Stage::Select, || {
                select_traced_in(
                    &ctx.ifg,
                    &ctx.nodes,
                    &rpg,
                    &cpg,
                    target,
                    &ctx.no_spill,
                    &ctx.spill_costs,
                    config,
                    round as u32,
                    &mut NoopTracer,
                    &mut cls.select,
                )
            });
            cpg.recycle(&mut cls.cpg);
            ctx.scratch = cls;

            for n in ctx.nodes.all_nodes() {
                if let Some(r) = res.assignment[n.index()] {
                    for &v in ctx.nodes.members(n) {
                        assignment[v.index()] = Some(r);
                    }
                }
            }
            for &n in &res.spilled {
                spilled_vregs.extend_from_slice(ctx.nodes.members(n));
            }
            recycle_class_ctx(ctx, scratch);
            res.recycle(&mut scratch.class.select);
            // As the pipeline does: select's counters move from the class
            // scratch into the worker registry.
            scratch
                .class
                .select
                .metrics
                .drain_into(&mut scratch.metrics);
        }

        let mut seen = scratch.flags.take_filled(lowered.func.num_vregs(), false);
        spilled_vregs.retain(|v| !std::mem::replace(&mut seen[v.index()], true));
        scratch.flags.put(seen);

        if spilled_vregs.is_empty() {
            analyses.recycle(&mut scratch.liveness);
            scratch.vregs.put(spilled_vregs);
            stats.rounds = round;
            t.rounds += round as u64;
            let mach = t.time(Stage::Rewrite, || {
                rewrite_in(
                    &lowered.func,
                    &assignment,
                    target,
                    slots,
                    &mut stats,
                    scratch,
                )
            });
            scratch.flags.put(no_spill_vregs);
            let out = AllocOutput {
                mach,
                stats,
                lowered: lowered.func,
                assignment,
            };
            let report = t
                .time(Stage::Check, || {
                    check_allocation_in(
                        &out.lowered,
                        &out.assignment,
                        &out.mach,
                        target,
                        CheckScope::Full,
                        &mut scratch.check,
                    )
                })
                .map_err(|e| e.to_string())?;
            t.mach_insts += report.mach_insts as u64;
            return Ok(out);
        }

        scratch.assignments.put(assignment);
        let fwd = (round <= SPL_FORWARD_MAX_ROUNDS).then_some(&analyses.spl);
        let outcome = t.time(Stage::Spill, || {
            insert_spill_code_fwd(&mut lowered.func, &spilled_vregs, &mut slots, fwd)
        });
        analyses.recycle(&mut scratch.liveness);
        scratch.vregs.put(spilled_vregs);
        lowered.sync_pinned_len();
        no_spill_vregs.resize(lowered.func.num_vregs(), false);
        for v in outcome.new_temps {
            no_spill_vregs[v.index()] = true;
        }
    }
    scratch.flags.put(no_spill_vregs);
    Err(format!(
        "{} did not converge in {MAX_ROUNDS} rounds",
        func.name
    ))
}
