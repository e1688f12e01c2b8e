//! Regenerates **Figure 10** of the paper: the impact of honoring
//! preferences, as elapsed time per register usage model.
//!
//! * (a) high pressure — 16 registers;
//! * (b) middle pressure — 24 registers;
//! * (c) low pressure — 32 registers.
//!
//! Elapsed time is simulated dynamic cycles (machine-interpreter execution
//! under the Appendix-consistent cost model). Columns are the paper's
//! three algorithms: ours restricted to coalescing, Park–Moon optimistic
//! coalescing, and the full-preference allocator.

use pdgc_bench::{
    geo_mean, print_table, run_workload, write_metrics, write_results, WorkloadResult,
};
use pdgc_core::baselines::OptimisticAllocator;
use pdgc_core::{PreferenceAllocator, RegisterAllocator};
use pdgc_obs::MetricsRegistry;
use pdgc_target::{PressureModel, TargetDesc};
use pdgc_workloads::{generate, specjvm_suite};

fn main() {
    let algs: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(OptimisticAllocator),
        Box::new(PreferenceAllocator::full()),
    ];

    let mut all_results: Vec<WorkloadResult> = Vec::new();
    let mut metrics = MetricsRegistry::default();
    for (sub, model) in [
        ("(a)", PressureModel::High),
        ("(b)", PressureModel::Middle),
        ("(c)", PressureModel::Low),
    ] {
        let target = TargetDesc::ia64_like(model);
        println!(
            "Figure 10{sub}: simulated elapsed time (kilocycles), {} registers",
            model.num_regs()
        );
        let mut table = Vec::new();
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); algs.len()];
        for prof in specjvm_suite() {
            let w = generate(&prof);
            let results: Vec<WorkloadResult> = algs
                .iter()
                .map(|a| run_workload(a.as_ref(), &w, &target, &mut metrics))
                .collect();
            let cycles: Vec<u64> = results.iter().map(|r| r.cycles).collect();
            all_results.extend(results);
            let full = *cycles.last().unwrap() as f64;
            for (i, &c) in cycles.iter().enumerate() {
                ratios[i].push(c as f64 / full);
            }
            let mut row = vec![prof.name.clone()];
            row.extend(cycles.iter().map(|c| format!("{:.1}", *c as f64 / 1000.0)));
            table.push(row);
        }
        let mut geo_row = vec!["geo. (vs full)".to_string()];
        geo_row.extend(ratios.iter().map(|r| format!("{:.3}", geo_mean(r))));
        table.push(geo_row);
        print_table(
            &["workload", "only-coalesce", "optimistic", "full-prefs"],
            &table,
        );
    }
    match write_results("fig10", &all_results) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    match write_metrics("fig10", "all", "ia64-16+24+32", &metrics) {
        Ok(path) => println!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
}
