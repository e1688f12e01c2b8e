//! Chaitin's allocator with aggressive coalescing — Figure 1(a) of the
//! paper and the *base* algorithm of the Figure 9 ratios.

use super::coalesce::{aggressive_coalesce, color_stack, fold_spill_costs, propagate_merged};
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::simplify::{simplify, SimplifyMode};
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseSpan, Tracer};
use pdgc_target::{PhysReg, TargetDesc};

/// Chaitin-style coloring: renumber → build → **aggressive coalesce** →
/// simplify with eager spill decisions → select in reverse simplification
/// order.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaitinAllocator;

impl ClassStrategy for ChaitinAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        _analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let round = ctx.round as u32;
        let class = ctx.class;
        let span = PhaseSpan::start(Phase::Coalesce, round, Some(class));
        aggressive_coalesce(&mut ctx.ifg, &ctx.copies);
        span.finish(&mut ctx.scratch.select.metrics, tracer);
        let mut costs = ctx.spill_costs.clone();
        fold_spill_costs(&ctx.ifg, &mut costs);
        let span = PhaseSpan::start(Phase::Simplify, round, Some(class));
        let sr = simplify(&mut ctx.ifg, ctx.k, &costs, SimplifyMode::Chaitin);
        span.finish(&mut ctx.scratch.select.metrics, tracer);
        if sr.must_spill() {
            // Spill decisions are definite: split now, retry next round.
            let assignment: Vec<Option<PhysReg>> = (0..ctx.nodes.num_nodes())
                .map(|i| {
                    let n = crate::node::NodeId::new(i);
                    ctx.nodes.is_precolored(n).then(|| ctx.nodes.phys_reg(n))
                })
                .collect();
            // A spilled representative spills all of its members.
            let mut spilled = Vec::new();
            for &s in &sr.chaitin_spills {
                for i in 0..ctx.nodes.num_nodes() {
                    let n = crate::node::NodeId::new(i);
                    if ctx.ifg.rep(n) == s && !ctx.nodes.is_precolored(n) {
                        spilled.push(n);
                    }
                }
            }
            return RoundOutcome { assignment, spilled };
        }
        ctx.ifg.restore_all();
        let span = PhaseSpan::start(Phase::Select, round, Some(class));
        let (mut assignment, spilled) = color_stack(
            &ctx.ifg,
            &ctx.nodes,
            &sr.stack,
            target,
            None,
            true, // the §6.2 non-volatile-first heuristic
        );
        span.finish(&mut ctx.scratch.select.metrics, tracer);
        assert!(
            spilled.is_empty(),
            "Chaitin select found no color after clean simplification"
        );
        propagate_merged(&ctx.ifg, &mut assignment);
        RoundOutcome {
            assignment,
            spilled: Vec::new(),
        }
    }
}

impl RegisterAllocator for ChaitinAllocator {
    fn name(&self) -> &'static str {
        "chaitin-aggressive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn coalesces_copy_chains_away() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.copy(p);
        let c = b.copy(a);
        let d = b.copy(c);
        b.ret(Some(d));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = ChaitinAllocator.allocate(&f, &target).unwrap();
        // Everything coalesces: param copy + 3 chain copies + ret copy.
        assert_eq!(out.stats.copies_remaining, 0);
        assert_eq!(out.stats.moves_eliminated, out.stats.copies_before);
        assert_eq!(out.stats.spill_instructions, 0);
    }

    #[test]
    fn spills_eagerly_under_pressure() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..7).map(|i| b.load(p, 16 + 32 * i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let target = TargetDesc::toy(4);
        let out = ChaitinAllocator.allocate(&f, &target).unwrap();
        assert!(out.stats.spill_instructions > 0);
        assert!(out.stats.rounds > 1);
    }
}
