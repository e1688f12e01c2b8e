//! Command line of the pdgc benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|serve_mix|scale --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a table, then one JSON line with `correct`, `attempted`,
//! `failed` and the metrics; exits non-zero when any output was wrong.

use pdgc_perfbench::{heap, run, Sizes, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: pdgc-perfbench --workload suite|serve_mix|scale --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .map_or_else(|| usage(&format!("{name} needs a value")), |v| v.as_str())
        })
    };
    let workload = flag("--workload").unwrap_or_else(|| usage("--workload is required"));
    let w = Workload::parse(workload)
        .unwrap_or_else(|| usage(&format!("unknown workload `{workload}`")));
    let seed: u64 = flag("--seed")
        .map_or(Ok(1), str::parse)
        .unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 = flag("--seconds")
        .map_or(Ok(10.0), str::parse)
        .unwrap_or_else(|_| usage("bad --seconds"));
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };

    let report = run(w, seed, seconds, trace, Sizes::FULL);
    println!(
        "workload {workload}  seed {seed}  trace {}  inputs {:016x}",
        u8::from(trace),
        report.input_fingerprint
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<26} {value:>16.4} {unit}");
    }
    for (name, value) in &report.counts {
        println!("  count {name:<20} {value}");
    }
    for p in &report.problems {
        eprintln!("FAILED: {p}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
