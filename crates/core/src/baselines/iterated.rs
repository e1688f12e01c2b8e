//! George–Appel iterated register coalescing — Figure 2(a).
//!
//! Simplification removes only non-move-related low-degree nodes; when it
//! blocks, a *conservative* coalesce (Briggs' criterion, George's toward
//! precolored nodes) is attempted; failing that, one low-degree
//! move-related node is *frozen* (its moves abandoned); failing that, a
//! potential spill is removed optimistically. Select uses biased coloring
//! to recover some of the frozen moves.

use super::coalesce::{
    briggs_conservative_ok, color_stack, fold_spill_costs, george_ok, propagate_merged,
};
use crate::node::NodeId;
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseSpan, Tracer};
use pdgc_target::TargetDesc;

/// The iterated-coalescing allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct IteratedAllocator;

impl ClassStrategy for IteratedAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        _analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let round = ctx.round as u32;
        let class = ctx.class;
        let k = ctx.k;
        let mut frozen = vec![false; ctx.nodes.num_nodes()];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut optimistic: Vec<NodeId> = Vec::new();
        let mut costs = ctx.spill_costs.clone();

        // A copy is live while both endpoints are unfrozen, distinct, and
        // still coalescable (non-interfering).
        let live_copies = |ifg: &crate::ifg::InterferenceGraph, frozen: &[bool]| {
            ctx.copies
                .iter()
                .filter_map(|c| {
                    let a = ifg.rep(c.dst);
                    let b = ifg.rep(c.src);
                    (a != b
                        && !frozen[a.index()]
                        && !frozen[b.index()]
                        && !ifg.interferes(a, b)
                        && !ifg.is_removed(a)
                        && !ifg.is_removed(b))
                    .then_some((a, b))
                })
                .collect::<Vec<_>>()
        };

        // Simplify / conservative-coalesce / freeze / potential-spill are
        // interleaved in one worklist loop, so one Coalesce span covers it.
        let span = PhaseSpan::start(Phase::Coalesce, round, Some(class));
        loop {
            let active = ctx.ifg.active_live_ranges();
            if active.is_empty() {
                break;
            }
            let copies = live_copies(&ctx.ifg, &frozen);
            let move_related =
                |n: NodeId| copies.iter().any(|&(a, b)| a == n || b == n);

            // 1. Simplify a non-move-related low-degree node.
            if let Some(&n) = active
                .iter()
                .find(|&&n| ctx.ifg.degree(n) < k && !move_related(n))
            {
                ctx.ifg.remove(n);
                stack.push(n);
                continue;
            }
            // 2. Conservative coalesce.
            let mut merged = false;
            for &(a, b) in &copies {
                let ok = if ctx.ifg.is_precolored(a) {
                    george_ok(&ctx.ifg, a, b, k)
                } else if ctx.ifg.is_precolored(b) {
                    george_ok(&ctx.ifg, b, a, k)
                } else {
                    briggs_conservative_ok(&ctx.ifg, a, b, k)
                };
                if ok {
                    if ctx.ifg.is_precolored(b) {
                        ctx.ifg.merge(b, a);
                    } else {
                        ctx.ifg.merge(a, b);
                    }
                    fold_spill_costs(&ctx.ifg, &mut costs);
                    merged = true;
                    break;
                }
            }
            if merged {
                continue;
            }
            // 3. Freeze a low-degree move-related node.
            if let Some(&n) = active
                .iter()
                .find(|&&n| ctx.ifg.degree(n) < k && move_related(n))
            {
                frozen[n.index()] = true;
                continue;
            }
            // 4. Potential spill (optimistic removal).
            let cand = active
                .iter()
                .copied()
                .filter(|&n| costs[n.index()] != u64::MAX)
                .min_by(|&a, &b| {
                    let lhs = costs[a.index()] as u128 * ctx.ifg.degree(b) as u128;
                    let rhs = costs[b.index()] as u128 * ctx.ifg.degree(a) as u128;
                    lhs.cmp(&rhs).then(a.index().cmp(&b.index()))
                })
                .expect("iterated coalescing: only unspillable nodes remain");
            ctx.ifg.remove(cand);
            stack.push(cand);
            optimistic.push(cand);
        }
        span.finish(&mut ctx.scratch.select.metrics, tracer);

        ctx.ifg.restore_all();
        let span = PhaseSpan::start(Phase::Select, round, Some(class));
        let (mut assignment, spilled_reps) =
            color_stack(&ctx.ifg, &ctx.nodes, &stack, target, Some(&ctx.copies), true);
        span.finish(&mut ctx.scratch.select.metrics, tracer);
        propagate_merged(&ctx.ifg, &mut assignment);
        let mut spilled = Vec::new();
        for &s in &spilled_reps {
            for i in 0..ctx.nodes.num_nodes() {
                let n = NodeId::new(i);
                if ctx.ifg.rep(n) == s && !ctx.nodes.is_precolored(n) {
                    assignment[n.index()] = None;
                    spilled.push(n);
                }
            }
        }
        RoundOutcome { assignment, spilled }
    }
}

impl RegisterAllocator for IteratedAllocator {
    fn name(&self) -> &'static str {
        "iterated-coalescing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn coalesces_conservatively_without_spilling() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.copy(p);
        let c = b.copy(a);
        b.ret(Some(c));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = IteratedAllocator.allocate(&f, &target).unwrap();
        assert_eq!(out.stats.spill_instructions, 0);
        // Low pressure: conservative coalescing removes every copy.
        assert_eq!(out.stats.copies_remaining, 0);
    }

    #[test]
    fn freezing_unblocks_move_heavy_pressure() {
        // Many copy-related values under tight pressure: freezing must
        // kick in rather than looping forever.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..5).map(|i| b.load(p, 16 + 32 * i)).collect();
        let copies: Vec<_> = vals.iter().map(|&v| b.copy(v)).collect();
        let mut acc = copies[0];
        for &v in &copies[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        // Keep the originals alive so copies cannot all coalesce.
        let mut acc2 = vals[0];
        for &v in &vals[1..] {
            acc2 = b.bin(BinOp::Add, acc2, v);
        }
        let r = b.bin(BinOp::Add, acc, acc2);
        b.ret(Some(r));
        let f = b.finish();
        let target = TargetDesc::toy(4);
        let out = IteratedAllocator.allocate(&f, &target).unwrap();
        assert!(out.lowered.verify().is_ok());
    }
}
