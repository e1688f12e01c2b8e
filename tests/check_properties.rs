//! Property-based coverage for the post-allocation symbolic checker
//! (`pdgc-check`): on randomly generated programs, **every** allocator's
//! output on **every** builtin target must be provable in
//! `CheckMode::Always`. A checker rejection here means either a real
//! allocator bug or a checker unsoundness — both block the suite.
//!
//! The pinned counterexample at the bottom replays the generated `jack`
//! workload whose zero-trip loop broke the checker's first must-analysis:
//! vregs spilled inside a loop body and reloaded after the exit are
//! *not* written on the path that skips the loop — the IR itself reads
//! garbage there, so the reload is correct, and the checker must prove it
//! via its must-defined/may-written tracking rather than reject it.
//! Failing seeds are persisted to `check_properties.proptest-regressions`
//! and replayed before fresh cases.

use proptest::prelude::*;

use pdgc::prelude::*;
use pdgc::workloads::WorkloadProfile;

/// Does `func` (post-lowering, post-spill) reload a slot that is not
/// must-written at the reload — i.e. some path from entry reaches the
/// `Reload` without passing any `Spill` to that slot? This is exactly the
/// zero-trip-loop shape that the checker's original strict rule rejected.
fn has_path_unwritten_reload(func: &Function) -> bool {
    use pdgc::ir::Inst;
    let cfg = pdgc::analysis::Cfg::compute(func);
    let nblocks = func.num_blocks();
    let nslots = 1 + func
        .block_ids()
        .flat_map(|b| func.block(b).insts.iter())
        .filter_map(|i| match i {
            Inst::Spill { slot, .. } | Inst::Reload { slot, .. } => Some(*slot),
            _ => None,
        })
        .max()
        .unwrap_or(0) as usize;
    // outs[b] = Some(set of slots written on every path from entry
    // through the end of b); None = not yet evaluated.
    let mut outs: Vec<Option<Vec<bool>>> = vec![None; nblocks];
    let rpo = cfg.reverse_postorder().to_vec();
    let mut hit = false;
    loop {
        let mut changed = false;
        for &b in &rpo {
            let mut inp: Option<Vec<bool>> = (b == Block::ENTRY).then(|| vec![false; nslots]);
            for &p in cfg.preds(b) {
                if let Some(o) = &outs[p.index()] {
                    inp = Some(match inp {
                        Some(a) => a.iter().zip(o).map(|(x, y)| *x && *y).collect(),
                        None => o.clone(),
                    });
                }
            }
            let Some(mut st) = inp else { continue };
            for inst in &func.block(b).insts {
                match inst {
                    Inst::Reload { slot, .. } if !st[*slot as usize] => hit = true,
                    Inst::Spill { slot, .. } => st[*slot as usize] = true,
                    _ => {}
                }
            }
            if outs[b.index()].as_ref() != Some(&st) {
                outs[b.index()] = Some(st);
                changed = true;
            }
        }
        if !changed {
            return hit;
        }
    }
}

/// Allocates `func` with every allocator and proves each allocation.
fn prove_all_allocators(func: &Function, target: &TargetDesc) -> Result<(), TestCaseError> {
    for alloc in pdgc::all_allocators() {
        let out = alloc
            .allocate_scratch(
                func,
                target,
                &mut NoopTracer,
                CheckMode::Always,
                CheckScope::Full,
                &mut PhaseScratch::default(),
            )
            .map_err(|e| {
                TestCaseError::fail(format!(
                    "{} on {} ({}): {e}",
                    alloc.name(),
                    func.name,
                    target.name
                ))
            })?;
        // The checker's report is consistent with the statistics the
        // rewrite pass published.
        let report = check_allocation(&out.lowered, &out.assignment, &out.mach, target)
            .expect("allocate_scratch already proved this allocation");
        prop_assert_eq!(report.paired_loads, out.stats.paired_loads as usize);
        prop_assert_eq!(report.blocks, out.mach.blocks.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every allocator × every builtin target (figure7's three-register
    /// file cannot allocate generated workloads and is exempt, as in
    /// `tests/target_matrix.rs`) on random programs, checker always on.
    #[test]
    fn checker_proves_every_allocator_on_every_builtin_target(
        seed in any::<u64>(),
        ops in 10usize..45,
        call_density in 0.0f64..0.4,
        loop_depth in 0u32..3,
        diamond_density in 0.0f64..0.5,
    ) {
        let registry = TargetRegistry::builtin();
        for name in registry.names() {
            if name == "figure7" {
                continue;
            }
            let target = registry.resolve(name).expect("registry target").clone();
            let prof = WorkloadProfile {
                name: "check-prop".into(),
                seed,
                num_funcs: 1,
                ops_per_func: ops,
                loop_depth,
                call_density,
                float_ratio: 0.25,
                paired_density: 0.3,
                byte_density: 0.15,
                pressure: 9,
                diamond_density,
                pair_stride: 8,
                pair_align: 1,
            }
            .for_target(&target);
            let w = generate(&prof);
            let func = &w.funcs[0];
            prop_assume!(func.verify().is_ok());
            prove_all_allocators(func, &target)?;
        }
    }
}

/// The pre-fix counterexample, pinned: the generated `jack` workload's
/// first function has a `b4 ↔ b5` loop whose body spills heavily, with
/// the spilled values reloaded after the zero-trip exit `b4 → b6`. The
/// checker's first version rejected the full-preference allocation with
/// 35 violations (`read before any write` / `stale-value`), all false:
/// on the skipping path the IR itself reads undefined vregs, so any
/// machine value refines it.
#[test]
fn jack_zero_trip_loop_is_provable() {
    let profiles = pdgc::workloads::specjvm_suite();
    let w = generate(&profiles[6]); // jack
    let func = &w.funcs[0];
    let target = TargetDesc::ia64_like(PressureModel::High);
    let out = PreferenceAllocator::full()
        .allocate_scratch(
            func,
            &target,
            &mut NoopTracer,
            CheckMode::Always,
            CheckScope::Full,
            &mut PhaseScratch::default(),
        )
        .expect("the zero-trip-loop allocation is correct and must be provable");
    // The counterexample shape is still present — if workload generation
    // changes and this stops holding, the pin needs a new specimen.
    assert!(
        has_path_unwritten_reload(&out.lowered),
        "jack_0 no longer reloads a path-unwritten slot; re-pin the zero-trip counterexample"
    );
}
