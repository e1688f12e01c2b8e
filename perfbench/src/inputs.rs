//! Input generation. Every input is a function of `--seed`: the benchmark
//! re-seeds the workload profiles itself, and the program only ever sees
//! the generated `Function`s or request lines.

use crate::rng::{mix, SplitMix};
use pdgc_bench::serve::request_line;
use pdgc_core::CheckMode;
use pdgc_ir::{Function, FunctionBuilder, RegClass};
use pdgc_target::TargetDesc;
use pdgc_workloads::{generate, specjvm_suite};

/// The SPECjvm98-analog suite re-seeded into `copies` copies for
/// `target`. `salt` keeps input sets drawn for different workloads apart.
pub fn suite_funcs(seed: u64, salt: u64, copies: usize, target: &TargetDesc) -> Vec<Function> {
    let mut funcs = Vec::new();
    for c in 0..copies as u64 {
        for base in specjvm_suite() {
            let mut p = base.for_target(target);
            p.seed = mix(seed ^ mix(salt ^ mix(c ^ mix(base.seed))));
            p.name = format!("{}{c}", base.name);
            funcs.extend(generate(&p).funcs);
        }
    }
    funcs
}

/// One request of the serve mix: which function, for which target.
#[derive(Clone, Debug)]
pub struct MixRequest {
    pub func: usize,
    pub target: usize,
    pub line: String,
}

/// Targets a serve-mix request may name, the first being the common one.
pub const MIX_TARGETS: [&str; 3] = ["ia64-24", "x86-24", "tight8"];

/// `len` requests over `funcs` with Zipf-like popularity of exponent
/// `skew`; one request in `minority` asks for one of the other targets,
/// so a popular function yields several cache keys.
///
/// Popularity is drawn per seed but stratified by size: functions are
/// sorted by size into bands of ten, and tier `t` of the popularity order
/// holds one function of every band, each with weight `1 / (t + 1)^skew`.
/// Which function of a band is popular depends on the seed, but every
/// seed's popular set has the same size mix, so the hit and miss times do
/// not hinge on how large a seed's most popular functions happen to be.
pub fn serve_stream(
    seed: u64,
    funcs: &[Function],
    len: usize,
    skew: f64,
    minority: usize,
) -> Vec<MixRequest> {
    const BAND_LEN: usize = 10;
    let mut rng = SplitMix::new(mix(seed ^ 0x5e7e));
    let mut by_size: Vec<usize> = (0..funcs.len()).collect();
    by_size.sort_by_key(|&i| (funcs[i].num_insts(), i));
    let mut bands: Vec<Vec<usize>> = by_size
        .chunks(BAND_LEN)
        .map(|band| {
            let mut band = band.to_vec();
            for i in (1..band.len()).rev() {
                band.swap(i, rng.below(i + 1));
            }
            band
        })
        .collect();
    let nb = bands.len();
    let mut order = Vec::with_capacity(funcs.len());
    while order.len() < funcs.len() {
        let start = rng.below(nb);
        for k in 0..nb {
            if let Some(f) = bands[(start + k) % nb].pop() {
                order.push(f);
            }
        }
    }
    let mut cdf = Vec::with_capacity(order.len());
    let mut total = 0.0;
    for r in 0..order.len() {
        total += 1.0 / ((r / nb + 1) as f64).powf(skew);
        cdf.push(total);
    }
    let texts: Vec<String> = funcs.iter().map(|f| f.to_string()).collect();
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(order.len() - 1);
            let func = order[rank];
            let target = if rng.below(minority) == 0 {
                1 + rng.below(MIX_TARGETS.len() - 1)
            } else {
                0
            };
            let line = request_line(&texts[func], MIX_TARGETS[target], "full", CheckMode::Always);
            MixRequest { func, target, line }
        })
        .collect()
}

/// The straight-line size-curve function: `n` loads, each value stored
/// back `live` instructions later, then the last two added. The sum is
/// passed twice to a call whose result is returned: the two argument
/// registers cannot share one value, so every size leaves one move the
/// allocator cannot remove and `moves_left` is never zero. The seed
/// rotates the load offsets, which moves the paired-load candidates at
/// the wrap-around, and names the function.
pub fn scale_func(seed: u64, n: usize, live: usize) -> Function {
    let rot = (mix(seed) % 64) as usize;
    let mut b = FunctionBuilder::new(
        &format!("line{:x}_n{n}_l{live}", seed & 0xffff),
        vec![RegClass::Int],
        Some(RegClass::Int),
    );
    let base = b.param(0);
    let mut vals = Vec::with_capacity(n);
    for i in 1..=n {
        vals.push(b.load(base, 8 * ((i + rot) % 64) as i32));
        if i > live {
            b.store(vals[i - 1 - live], base, 0);
        }
    }
    let sum = b.bin(pdgc_ir::BinOp::Add, vals[n - 2], vals[n - 1]);
    let r = b.call("sink", vec![sum, sum], Some(RegClass::Int));
    b.ret(r);
    b.finish()
}
