//! Differential correctness: every allocator, on every workload function,
//! under every pressure model, must produce machine code observably
//! equivalent to the virtual-register original — same return value, same
//! call trace (callee + argument values, in order), same final memory.
//!
//! The machine interpreter clobbers every volatile register at calls and
//! delivers arguments only through the convention's argument registers, so
//! caller-save omissions, argument mis-routing, bad coalescing, and spill
//! bugs all surface here. Every allocation additionally runs under the
//! symbolic checker (`pdgc-check`, `CheckMode::Always`), which proves the
//! same properties statically over all paths, not just the executed one.
//!
//! The suite is sharded **per allocator** (one `#[test]` each, generated
//! by `differential_tests!`), so the test harness runs allocators in
//! parallel and a failure names the culprit directly. Generated workloads
//! and reference interpretations are computed once and shared across
//! shards. Run with `--nocapture` to see per-case allocator timings.

use pdgc::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The generated SPECjvm98-analog workloads, computed once per process.
fn workloads() -> &'static [Workload] {
    static W: OnceLock<Vec<Workload>> = OnceLock::new();
    W.get_or_init(|| specjvm_suite().iter().map(generate).collect())
}

/// The reference (virtual-register) interpretation of one workload
/// function, memoized so the nine allocator shards don't re-interpret
/// the same functions nine times.
fn reference_for(wi: usize, fi: usize) -> Arc<pdgc::sim::ExecOutcome> {
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), Arc<pdgc::sim::ExecOutcome>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&(wi, fi)) {
        return Arc::clone(hit);
    }
    let func = &workloads()[wi].funcs[fi];
    let outcome = run_ir(func, &default_args(func), DEFAULT_FUEL)
        .unwrap_or_else(|e| panic!("{}: reference failed: {e}", func.name));
    let outcome = Arc::new(outcome);
    cache
        .lock()
        .unwrap()
        .insert((wi, fi), Arc::clone(&outcome));
    outcome
}

/// Checks one allocator against every workload function (up to
/// `per_workload` each) under one pressure model, timing each case.
fn check_allocator_with(alloc: &dyn RegisterAllocator, pressure: PressureModel, per_workload: usize) {
    let target = TargetDesc::ia64_like(pressure);
    let started = Instant::now();
    let mut cases = 0usize;
    let mut slowest: (Duration, String) = (Duration::ZERO, String::new());
    for (wi, w) in workloads().iter().enumerate() {
        for (fi, func) in w.funcs.iter().take(per_workload).enumerate() {
            let args = default_args(func);
            let reference = reference_for(wi, fi);
            let case_started = Instant::now();
            let out = alloc
                .allocate_scratch(
                    func,
                    &target,
                    &mut NoopTracer,
                    CheckMode::Always,
                    CheckScope::Full,
                    &mut PhaseScratch::default(),
                )
                .unwrap_or_else(|e| panic!("{} on {}: {e}", alloc.name(), func.name));
            let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap_or_else(|e| {
                panic!("{} on {}: machine run failed: {e}", alloc.name(), func.name)
            });
            check_equivalent(reference.as_ref(), &mach).unwrap_or_else(|e| {
                panic!(
                    "{} mis-allocated {} ({:?}): {e}",
                    alloc.name(),
                    func.name,
                    pressure
                )
            });
            let elapsed = case_started.elapsed();
            eprintln!(
                "  case {:<22} {:<16} {:?} {:>9.2?}",
                alloc.name(),
                func.name,
                pressure,
                elapsed
            );
            if elapsed > slowest.0 {
                slowest = (elapsed, func.name.clone());
            }
            cases += 1;
        }
    }
    eprintln!(
        "differential {:<22} {:?}: {cases} cases in {:.2?} (slowest {} at {:.2?})",
        alloc.name(),
        pressure,
        started.elapsed(),
        slowest.1,
        slowest.0
    );
}

/// The toy-8-register scenario: heavy spilling on real code. (Smaller
/// files can make Chaitin-style allocation infeasible outright: one
/// instruction's reload temporaries plus pinned argument registers can
/// exceed the file, which no allocator in this family can fix.)
fn check_allocator_tiny(alloc: &dyn RegisterAllocator) {
    let target = TargetDesc::toy(8);
    let wi = 0; // compress: highest pressure
    for (fi, func) in workloads()[wi].funcs.iter().take(3).enumerate() {
        let args = default_args(func);
        let reference = reference_for(wi, fi);
        let out = alloc
            .allocate_scratch(
                func,
                &target,
                &mut NoopTracer,
                CheckMode::Always,
                CheckScope::Full,
                &mut PhaseScratch::default(),
            )
            .unwrap_or_else(|e| panic!("{} on {}: {e}", alloc.name(), func.name));
        assert!(out.stats.spill_instructions > 0, "toy(8) must force spills");
        let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
        check_equivalent(&reference, &mach)
            .unwrap_or_else(|e| panic!("{} mis-allocated {}: {e}", alloc.name(), func.name));
    }
}

/// One `#[test]` per allocator and scenario, so shards parallelize and
/// failures name the allocator. High pressure covers every workload
/// function; middle/low cover 2 per workload (the pressure-independent
/// bulk is already covered by high, and the per-target matrix in
/// `tests/target_matrix.rs` adds further coverage per registered
/// target, so the low-pressure shards stay trimmed to keep CI
/// wall-clock flat).
macro_rules! differential_tests {
    ($($mod_name:ident => $alloc:expr;)+) => {
        $(
            mod $mod_name {
                use super::*;

                #[test]
                fn preserves_semantics_high_pressure() {
                    check_allocator_with(&$alloc, PressureModel::High, usize::MAX);
                }

                #[test]
                fn preserves_semantics_middle_pressure() {
                    check_allocator_with(&$alloc, PressureModel::Middle, 2);
                }

                #[test]
                fn preserves_semantics_low_pressure() {
                    check_allocator_with(&$alloc, PressureModel::Low, 2);
                }

                #[test]
                fn preserves_semantics_tiny_register_file() {
                    check_allocator_tiny(&$alloc);
                }
            }
        )+

        /// The allocator set above must stay in sync with
        /// [`pdgc::all_allocators`]; this guard fails when an allocator
        /// is added there without a differential shard here.
        #[test]
        fn shards_cover_all_allocators() {
            let sharded = [$($alloc.name()),+];
            let all: Vec<&str> = pdgc::all_allocators().iter().map(|a| a.name()).collect();
            for name in &all {
                assert!(
                    sharded.contains(name),
                    "allocator {name} has no differential shard"
                );
            }
            assert_eq!(sharded.len(), all.len(), "stale shard list");
        }
    };
}

differential_tests! {
    chaitin => ChaitinAllocator;
    briggs => BriggsAllocator;
    iterated => IteratedAllocator;
    optimistic => OptimisticAllocator;
    callcost => CallCostAllocator;
    priority => PriorityAllocator;
    pdgc_coalescing => PreferenceAllocator::coalescing_only();
    pdgc_full => PreferenceAllocator::full();
    pdgc_full_precoalesce => PreferenceAllocator::full().with_precoalesce();
}
