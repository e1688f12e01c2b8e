//! Experiments beyond the paper's figures:
//!
//! 1. **Preference ablation** — the contribution of each preference kind
//!    (coalesce → +sequential → +volatility → +limited) to simulated
//!    elapsed time, on the middle-pressure model. DESIGN.md's ablation
//!    index.
//! 2. **Register footprint** — distinct registers touched per allocator,
//!    the quantity §7 argues matters on stacked-register machines
//!    (IA-64): the preference-directed allocator keeps the Chaitin-style
//!    packing.
//! 3. **Limited-usage preference** (x86-like target) — zero-extensions
//!    avoided by the full allocator on a byte-load-dense workload.

use pdgc_bench::{
    geo_mean, print_table, run_workload, write_metrics, write_results, WorkloadResult,
};
use pdgc_core::baselines::{ChaitinAllocator, OptimisticAllocator, PriorityAllocator};
use pdgc_core::{PreferenceAllocator, PreferenceSet, RegisterAllocator};
use pdgc_obs::MetricsRegistry;
use pdgc_target::{PressureModel, TargetDesc};
use pdgc_workloads::{default_args, generate, specjvm_suite, WorkloadProfile};

fn main() {
    let mut metrics = MetricsRegistry::default();
    let mut all_results = ablation(&mut metrics);
    footprint();
    limited_usage();
    all_results.extend(precoalesce(&mut metrics));
    match write_results("extras", &all_results) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    match write_metrics("extras", "all", "ia64-24+32", &metrics) {
        Ok(path) => println!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
}

/// The paper's §6.1/§8 proposed refinement — conservatively coalescing
/// non-spill-causing pairs before simplification — measured where the
/// one-by-one approach trails optimistic coalescing most: move
/// elimination with plentiful registers.
fn precoalesce(metrics: &mut MetricsRegistry) -> Vec<WorkloadResult> {
    let target = TargetDesc::ia64_like(PressureModel::Low);
    println!("Pre-coalescing refinement: eliminated moves & spills, 32 registers");
    let algs: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(PreferenceAllocator::coalescing_only().with_precoalesce()),
        Box::new(OptimisticAllocator),
    ];
    let mut all = Vec::new();
    let mut table = Vec::new();
    for prof in specjvm_suite() {
        let w = generate(&prof);
        let mut row = vec![prof.name.clone()];
        for a in &algs {
            let r = run_workload(a.as_ref(), &w, &target, metrics);
            row.push(format!(
                "{}/{}",
                r.stats.moves_eliminated, r.stats.spill_instructions
            ));
            all.push(r);
        }
        table.push(row);
    }
    print_table(
        &["workload", "one-by-one", "+pre-coalesce", "optimistic"],
        &table,
    );
    println!("(cells are eliminated-moves/spill-instructions)");
    all
}

fn ablation(metrics: &mut MetricsRegistry) -> Vec<WorkloadResult> {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let configs: Vec<(&str, PreferenceSet)> = vec![
        ("coalesce", PreferenceSet::coalescing_only()),
        (
            "+sequential",
            PreferenceSet {
                coalesce: true,
                sequential: true,
                volatility: false,
                limited: false,
            },
        ),
        (
            "+volatility",
            PreferenceSet {
                coalesce: true,
                sequential: true,
                volatility: true,
                limited: false,
            },
        ),
        ("+limited (full)", PreferenceSet::full()),
    ];

    println!("Ablation: simulated elapsed time (kilocycles) per preference mix, 24 registers");
    let mut all = Vec::new();
    let mut table = Vec::new();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for prof in specjvm_suite() {
        let w = generate(&prof);
        let cycles: Vec<u64> = configs
            .iter()
            .map(|(_, prefs)| {
                let alloc = PreferenceAllocator::with_preferences(*prefs);
                let r = run_workload(&alloc, &w, &target, metrics);
                let c = r.cycles;
                all.push(r);
                c
            })
            .collect();
        let full = *cycles.last().unwrap() as f64;
        let mut row = vec![prof.name.clone()];
        for (i, &c) in cycles.iter().enumerate() {
            ratios[i].push(c as f64 / full);
            row.push(format!("{:.1}", c as f64 / 1000.0));
        }
        table.push(row);
    }
    let mut geo_row = vec!["geo. (vs full)".to_string()];
    geo_row.extend(ratios.iter().map(|r| format!("{:.3}", geo_mean(r))));
    table.push(geo_row);
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(configs.iter().map(|(n, _)| *n))
        .collect();
    print_table(&headers, &table);
    all
}

fn footprint() {
    let target = TargetDesc::ia64_like(PressureModel::Low);
    println!("Register footprint: distinct registers touched (32-register model)");
    println!("(§7: priority-based coloring \"probably uses more registers than");
    println!(" Chaitin's approach\"; fewer matter on stacked files like IA-64)");
    let algs: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(ChaitinAllocator),
        Box::new(OptimisticAllocator),
        Box::new(PriorityAllocator),
        Box::new(PreferenceAllocator::full()),
    ];
    let mut table = Vec::new();
    for prof in specjvm_suite() {
        let w = generate(&prof);
        let mut row = vec![prof.name.clone()];
        for a in &algs {
            let total: usize = w
                .funcs
                .iter()
                .map(|f| a.allocate(f, &target).unwrap().mach.regs_used().len())
                .sum();
            row.push(format!("{:.1}", total as f64 / w.funcs.len() as f64));
        }
        table.push(row);
    }
    print_table(
        &["workload", "chaitin", "optimistic", "priority", "full-prefs"],
        &table,
    );
}

fn limited_usage() {
    let target = TargetDesc::x86_like(PressureModel::Middle);
    let prof = WorkloadProfile {
        name: "x86-bytes".into(),
        seed: 0xB17E5,
        num_funcs: 8,
        ops_per_func: 90,
        loop_depth: 2,
        call_density: 0.15,
        float_ratio: 0.0,
        paired_density: 0.0,
        byte_density: 0.45,
        pressure: 10,
        diamond_density: 0.2,
        pair_stride: 8,
        pair_align: 1,
    };
    let w = generate(&prof);
    println!("Limited register usage (x86-like byte registers, 24-register model)");
    let algs: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(OptimisticAllocator),
        Box::new(PreferenceAllocator::full()),
    ];
    let mut table = Vec::new();
    for a in &algs {
        let mut exts = 0usize;
        let mut cycles = 0u64;
        for f in &w.funcs {
            let out = a.allocate(f, &target).unwrap();
            exts += out.stats.zero_extensions;
            let exec =
                pdgc_sim::run_mach(&out.mach, &target, &default_args(f), pdgc_sim::DEFAULT_FUEL)
                    .unwrap();
            cycles += exec.cycles;
        }
        let short = match a.name() {
            "pdgc-coalescing-only" => "pdgc-coalesce",
            "optimistic-coalescing" => "optimistic",
            other => other,
        };
        table.push(vec![
            short.to_string(),
            exts.to_string(),
            format!("{:.1}", cycles as f64 / 1000.0),
        ]);
    }
    print_table(&["allocator", "zero-exts", "kilocycles"], &table);
}
