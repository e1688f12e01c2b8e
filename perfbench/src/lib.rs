//! The pdgc benchmark: three single-threaded workloads that time the
//! allocator the way its users wait for it, check every output, and
//! report end-to-end metrics (`--trace 0`) or per-layer metrics from a
//! stage-by-stage traced run (`--trace 1`). See `README.md` for what each
//! metric means on each workload.

pub mod calib;
pub mod heap;
pub mod inputs;
pub mod rng;
pub mod stepper;
pub mod summary;

use inputs::{scale_func, serve_stream, suite_funcs, MixRequest, MIX_TARGETS};
use pdgc_bench::fingerprint_mach;
use pdgc_bench::serve::{cache_key, ServeConfig, ServeSession};
use pdgc_core::{
    AllocOutput, CheckMode, CheckScope, PhaseScratch, PreferenceAllocator, RegisterAllocator,
};
use pdgc_ir::{parse_function, Function};
use pdgc_obs::json::Json;
use pdgc_obs::{Counter, MetricsRegistry, NoopTracer, Phase};
use pdgc_sim::{check_equivalent, run_ir, run_mach, DEFAULT_FUEL};
use pdgc_target::{TargetDesc, TargetRegistry};
use pdgc_workloads::default_args;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use stepper::{step_full, Stage, StageTotals};
use summary::{median, quantile};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The SPECjvm98-analog suite, allocated and checked function by
    /// function through `allocate_scratch`: no JSON, no IR parsing, no cache.
    Suite,
    /// One closed-loop client against one `ServeSession` with a skewed,
    /// multi-target request mix and an evicting cache.
    ServeMix,
    /// The straight-line size curve, each size one fresh request.
    Scale,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite" => Some(Workload::Suite),
            "serve_mix" => Some(Workload::ServeMix),
            "scale" => Some(Workload::Scale),
            _ => None,
        }
    }
}

/// Input-set sizes. The command line always uses [`Sizes::FULL`]; the
/// steadiness self-test runs the same code on [`Sizes::SMALL`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Re-seeded copies of the 66-function suite on `suite`.
    pub suite_copies: usize,
    /// Re-seeded copies of the suite the serve mix draws from.
    pub serve_copies: usize,
    /// Serve-mix requests generated: one cycle, which the run replays
    /// against one session, the first time untimed.
    pub stream_len: usize,
    /// Requests replayed by the traced serve pass (wrapping around the
    /// cycle).
    pub trace_requests: usize,
    /// Serve-mix cache capacity, below the number of distinct keys.
    pub cache_cap: usize,
    /// `(n, live)` sizes of the scale curve. `largest_s` is the last entry
    /// and `growth_4x` divides it by the entry of the same `live` a quarter
    /// its size.
    pub scale_sizes: &'static [(usize, usize)],
    /// `(n, live)` of the two scale-curve functions, 4x apart, whose time
    /// ratio is `growth_4x` on `suite` and `serve_mix`.
    pub probe_sizes: [(usize, usize); 2],
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        suite_copies: 2,
        serve_copies: 2,
        stream_len: 400,
        trace_requests: 1200,
        cache_cap: 48,
        // An odd number of sizes with distinct N and well-separated times
        // (a hit costs by N alone, a miss by N and L), so each percentile
        // falls inside one size's samples, not between two.
        scale_sizes: &[(2048, 8), (128, 64), (256, 64), (512, 64), (1024, 64)],
        probe_sizes: [(128, 64), (512, 64)],
    };
    pub const SMALL: Sizes = Sizes {
        suite_copies: 1,
        serve_copies: 1,
        stream_len: 150,
        trace_requests: 120,
        cache_cap: 24,
        scale_sizes: &[(128, 8), (64, 16), (256, 16)],
        probe_sizes: [(32, 8), (128, 8)],
    };
}

/// Popularity skew of the serve mix (Zipf exponent over popularity tiers),
/// chosen with `cache_cap` 48 and a 400-request cycle for about 210 hit and
/// 190 miss positions.
const MIX_SKEW: f64 = 1.5;
/// One serve-mix request in this many names a non-default target.
const MIX_MINORITY: usize = 5;
const SUITE_SALT: u64 = 0x5017e;
const SERVE_SALT: u64 = 0x5e12e;

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic quantities: equal for equal seeds.
    pub counts: BTreeMap<&'static str, u64>,
    /// Hash of the generated inputs.
    pub input_fingerprint: u64,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line, printed last: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f`, turning a panic into an error so one bad operation counts as
/// a failure instead of ending the run.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

fn target(name: &str) -> TargetDesc {
    TargetRegistry::builtin()
        .resolve(name)
        .expect("builtin target")
        .clone()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// A run's set-up (generating the inputs, building the session or
/// scratch), timed once before the timed work and again between its
/// passes, each time at the reference speed. `setup_s` is the median:
/// taken over the whole run, it does not hinge on how busy the shared
/// machine was in the run's first second.
struct Setup<F> {
    make: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Runs the set-up whose result the run uses.
    fn new(mut make: F) -> (Self, T) {
        let t0 = Instant::now();
        let x = make();
        let times = vec![calib::at_reference(t0.elapsed().as_secs_f64())];
        (Setup { make, times }, x)
    }

    /// Times one more set-up and drops it. Its memory does not count toward
    /// the peak, which is that of a run holding one input set.
    fn again(&mut self) {
        let peak = heap::peak_bytes();
        let t0 = Instant::now();
        drop((self.make)());
        let t = t0.elapsed().as_secs_f64();
        self.times.push(calib::at_reference(t));
        heap::restore_peak(peak);
    }

    fn median_s(&self) -> f64 {
        median(&self.times).expect("set up at least once")
    }
}

/// The independently checked answer for one (function, target) input: a
/// direct `allocate_scratch`, proven by the checker, whose machine code
/// must behave like the IR interpreter's run of the source.
#[derive(Clone, Debug)]
struct Reference {
    fingerprint: u64,
    cycles: u64,
    spill_insts: u64,
    moves_left: u64,
}

fn allocate(
    func: &Function,
    target: &TargetDesc,
    scratch: &mut PhaseScratch,
) -> Result<AllocOutput, String> {
    guarded(|| {
        PreferenceAllocator::full().allocate_scratch(
            func,
            target,
            &mut NoopTracer,
            CheckMode::Always,
            CheckScope::Full,
            scratch,
        )
    })
    .and_then(|r| r.map_err(|e| e.to_string()))
    .map_err(|e| format!("{}: {e}", func.name))
}

fn reference(
    func: &Function,
    target: &TargetDesc,
    scratch: &mut PhaseScratch,
) -> Result<Reference, String> {
    let out = allocate(func, target, scratch)?;
    let args = default_args(func);
    let want =
        run_ir(func, &args, DEFAULT_FUEL).map_err(|e| format!("{}: IR run: {e}", func.name))?;
    let got = run_mach(&out.mach, target, &args, DEFAULT_FUEL)
        .map_err(|e| format!("{}: machine run: {e}", func.name))?;
    check_equivalent(&want, &got).map_err(|e| format!("{} on {}: {e}", func.name, target.name))?;
    let r = Reference {
        fingerprint: fingerprint_mach(&out.mach),
        cycles: got.cycles,
        spill_insts: out.stats.spill_instructions as u64,
        moves_left: out.stats.copies_remaining as u64,
    };
    out.recycle(scratch);
    Ok(r)
}

/// References computed on first use, keyed by input id.
struct References {
    scratch: PhaseScratch,
    done: HashMap<usize, Result<Reference, String>>,
}

impl References {
    fn new() -> Self {
        References {
            scratch: PhaseScratch::new(),
            done: HashMap::new(),
        }
    }

    fn get(
        &mut self,
        id: usize,
        func: &Function,
        target: &TargetDesc,
    ) -> Result<&Reference, String> {
        let scratch = &mut self.scratch;
        self.done
            .entry(id)
            .or_insert_with(|| reference(func, target, scratch))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The references computed without error so far.
    fn ok(&self) -> impl Iterator<Item = (&usize, &Reference)> {
        self.done
            .iter()
            .filter_map(|(id, x)| x.as_ref().ok().map(|x| (id, x)))
    }
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// Time at the reference speed (`calib::at_reference`).
    ms: f64,
    /// Served without allocating (cache hit; on `suite`, an allocation on
    /// warm pools).
    hit: bool,
    /// Place of the operation in the pass the run repeats (function index,
    /// or request position in the serve cycle).
    slot: usize,
    /// Input id (function, or function × target).
    item: usize,
    /// IR instructions of the input.
    size: usize,
}

/// The typical time of every repeated operation: for each `(slot, hit)`
/// the median over the run's passes of its times at the reference speed.
fn typical(ops: &[Op]) -> Vec<Op> {
    let mut samples: BTreeMap<(usize, bool), (Op, Vec<f64>)> = BTreeMap::new();
    for o in ops {
        samples
            .entry((o.slot, o.hit))
            .or_insert((*o, Vec::new()))
            .1
            .push(o.ms);
    }
    samples
        .into_values()
        .map(|(o, t)| Op {
            ms: median(&t).expect("sampled"),
            ..o
        })
        .collect()
}

/// The scale-curve pair timed once per pass on `suite` and `serve_mix`
/// for `growth_4x`: two straight-line functions 4x apart, allocated and
/// checked like the workload's own, one after the other so that both
/// times of a pass see the same machine.
struct Probe {
    tgt: TargetDesc,
    funcs: Vec<Function>,
    refs: References,
    scratch: PhaseScratch,
    /// Per pass: the larger function's time over the smaller one's.
    ratios: Vec<f64>,
}

impl Probe {
    fn new(seed: u64, sz: Sizes) -> Probe {
        Probe {
            tgt: target("ia64-24"),
            funcs: sz
                .probe_sizes
                .iter()
                .map(|&(n, live)| scale_func(seed, n, live))
                .collect(),
            refs: References::new(),
            scratch: PhaseScratch::new(),
            ratios: Vec::new(),
        }
    }

    fn pass(&mut self, r: &mut Report) {
        let mut t_ms = [0.0; 2];
        let mut ok = true;
        for (i, f) in self.funcs.iter().enumerate() {
            let t0 = Instant::now();
            let out = allocate(f, &self.tgt, &mut self.scratch);
            let t = ms(t0.elapsed());
            let res = out.and_then(|out| {
                let fp = fingerprint_mach(&out.mach);
                out.recycle(&mut self.scratch);
                same_fingerprint(f, fp, self.refs.get(i, f, &self.tgt)?)
            });
            t_ms[i] = t;
            if res.is_err() {
                ok = false;
                self.scratch = PhaseScratch::new();
            }
            r.attempt(res);
        }
        if ok {
            self.ratios.push(t_ms[1] / t_ms[0]);
        }
    }

    fn growth(&self) -> f64 {
        median(&self.ratios).unwrap_or(0.0)
    }
}

fn same_fingerprint(f: &Function, fp: u64, want: &Reference) -> Result<(), String> {
    if fp == want.fingerprint {
        Ok(())
    } else {
        Err(format!(
            "{}: fingerprint {fp:016x} != reference {:016x}",
            f.name, want.fingerprint
        ))
    }
}

fn response_field<'a>(resp: &'a str, field: &str) -> Option<&'a str> {
    let pat = format!("\"{field}\":");
    let at = resp.find(&pat)? + pat.len();
    let rest = &resp[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Checks one serve response against its reference; returns whether it
/// was served from the cache.
fn check_response(resp: &str, want: &Reference) -> Result<bool, String> {
    if response_field(resp, "ok") != Some("true") {
        return Err(format!("error response: {}", &resp[..resp.len().min(200)]));
    }
    let fp = response_field(resp, "fingerprint").unwrap_or("");
    if fp != format!("{:016x}", want.fingerprint) {
        return Err(format!(
            "fingerprint {fp} != reference {:016x}",
            want.fingerprint
        ));
    }
    Ok(response_field(resp, "cached") == Some("true"))
}

/// Throughput and latency over every timed operation.
fn op_metrics(r: &mut Report, ops: &[Op]) {
    let all: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let hits: Vec<f64> = ops.iter().filter(|o| o.hit).map(|o| o.ms).collect();
    let misses: Vec<f64> = ops.iter().filter(|o| !o.hit).map(|o| o.ms).collect();
    r.metric(
        "req_per_s",
        all.len() as f64 * 1e3 / all.iter().sum::<f64>(),
        "1/s",
    );
    r.metric("req_ms_p95", quantile(&all, 0.95).unwrap_or(0.0), "ms");
    r.metric("hit_ms_p50", median(&hits).unwrap_or(0.0), "ms");
    r.metric("miss_ms_p50", median(&misses).unwrap_or(0.0), "ms");
}

/// Throughput and latency of the operations that allocate.
fn fn_metrics(r: &mut Report, allocating: &[Op]) {
    let t: Vec<f64> = allocating.iter().map(|o| o.ms).collect();
    r.metric(
        "funcs_per_s",
        t.len() as f64 * 1e3 / t.iter().sum::<f64>(),
        "1/s",
    );
    r.metric("fn_ms_p50", median(&t).unwrap_or(0.0), "ms");
    r.metric("fn_ms_p95", quantile(&t, 0.95).unwrap_or(0.0), "ms");
}

/// `largest_s` of a workload with many input sizes: the median time of the
/// largest quarter of inputs. A quarter, not a tenth, so which few large
/// functions a seed draws moves it less.
fn largest_metric(r: &mut Report, allocating: &[Op]) {
    let sizes: BTreeMap<usize, usize> = allocating.iter().map(|o| (o.item, o.size)).collect();
    let mut sizes: Vec<usize> = sizes.into_values().collect();
    sizes.sort_unstable();
    let cut = sizes.get(sizes.len() * 3 / 4).copied().unwrap_or(0);
    let largest: Vec<f64> = allocating
        .iter()
        .filter(|o| o.size >= cut)
        .map(|o| o.ms)
        .collect();
    r.metric("largest_s", median(&largest).unwrap_or(0.0) / 1e3, "s");
}

fn quality_metrics<'a>(r: &mut Report, refs: impl Iterator<Item = (&'a usize, &'a Reference)>) {
    let (mut cycles, mut spills, mut moves, mut fps) = (0u64, 0u64, 0u64, 0u64);
    for (&id, x) in refs {
        cycles += x.cycles;
        spills += x.spill_insts;
        moves += x.moves_left;
        // Order-free, so the combination does not depend on map order.
        fps = fps.wrapping_add(rng::mix(x.fingerprint ^ rng::mix(id as u64)));
    }
    r.counts.insert("sim_cycles", cycles);
    r.counts.insert("spill_insts", spills);
    r.counts.insert("moves_left", moves);
    r.counts.insert("fingerprints", fps);
    r.metric("sim_cycles", cycles as f64, "cycles");
    r.metric("spill_insts", spills as f64, "count");
    r.metric("moves_left", moves as f64, "count");
}

fn finish_e2e(r: &mut Report, setup_s: f64) {
    r.metric("setup_s", setup_s, "s");
    r.metric(
        "peak_rss_mb",
        heap::peak_bytes() as f64 / (1 << 20) as f64,
        "MB",
    );
}

/// Runs one workload for about `seconds` of timed work.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, sz: Sizes) -> Report {
    let budget = Duration::from_secs_f64(seconds);
    match (w, trace) {
        (Workload::Suite, false) => suite(seed, budget, sz),
        (Workload::ServeMix, false) => serve_mix(seed, budget, sz),
        (Workload::Scale, false) => scale(seed, budget, sz),
        (_, true) => traced(w, seed, budget, sz),
    }
}

fn input_hash(funcs: &[Function]) -> u64 {
    funcs.iter().fold(0xcbf2_9ce4_8422_2325, |h, f| {
        f.to_string().bytes().fold(h, |h, b| fnv(h, u64::from(b)))
    })
}

fn suite(seed: u64, budget: Duration, sz: Sizes) -> Report {
    let mut r = Report::default();
    let (mut setup, (tgt, funcs, mut scratch)) = Setup::new(|| {
        let tgt = target("ia64-24");
        let funcs = suite_funcs(seed, SUITE_SALT, sz.suite_copies, &tgt);
        (tgt, funcs, PhaseScratch::new())
    });
    r.input_fingerprint = input_hash(&funcs);
    let mut refs = References::new();
    for (i, f) in funcs.iter().enumerate() {
        let res = refs.get(i, f, &tgt).map(|_| ());
        r.attempt(res);
    }

    // Passes alternate: even passes allocate each function on fresh pools
    // (a miss: what a one-shot caller pays), odd passes on the run's warm
    // scratch (a hit: what a long-lived caller such as `serve` pays).
    let mut probe = Probe::new(seed, sz);
    let mut ops = Vec::new();
    let start = Instant::now();
    'run: for pass in 0.. {
        if pass > 0 {
            setup.again();
        }
        probe.pass(&mut r);
        let warm = pass % 2 == 1;
        for (i, f) in funcs.iter().enumerate() {
            if start.elapsed() >= budget && pass > 1 {
                break 'run;
            }
            let mut cold = None;
            let t0 = Instant::now();
            let pools = if warm {
                &mut scratch
            } else {
                cold.insert(PhaseScratch::new())
            };
            let out = allocate(f, &tgt, pools);
            let t = calib::at_reference(ms(t0.elapsed()));
            let res = out.and_then(|out| {
                let fp = fingerprint_mach(&out.mach);
                out.recycle(pools);
                same_fingerprint(f, fp, refs.get(i, f, &tgt)?)
            });
            if res.is_err() {
                scratch = PhaseScratch::new();
            }
            r.attempt(res);
            ops.push(Op {
                ms: t,
                hit: warm,
                slot: i,
                item: i,
                size: f.num_insts(),
            });
        }
    }
    r.notes.push(format!(
        "{} timed allocations, {:.1} passes of {} functions",
        ops.len(),
        ops.len() as f64 / funcs.len() as f64,
        funcs.len()
    ));
    let ops = typical(&ops);
    let warm: Vec<Op> = ops.iter().filter(|o| o.hit).copied().collect();
    op_metrics(&mut r, &ops);
    fn_metrics(&mut r, &warm);
    largest_metric(&mut r, &warm);
    r.metric("growth_4x", probe.growth(), "ratio");
    quality_metrics(&mut r, refs.ok());
    finish_e2e(&mut r, setup.median_s());
    r
}

struct MixSetup {
    targets: Vec<TargetDesc>,
    funcs: Vec<Function>,
    stream: Vec<MixRequest>,
}

fn mix_setup(seed: u64, sz: Sizes) -> MixSetup {
    let targets: Vec<TargetDesc> = MIX_TARGETS.iter().map(|n| target(n)).collect();
    // The suite re-seeded apart from `suite`, shaped for the most
    // constrained target so every (function, target) pair allocates.
    let funcs = suite_funcs(seed, SERVE_SALT, sz.serve_copies, &targets[2]);
    let stream = serve_stream(seed, &funcs, sz.stream_len, MIX_SKEW, MIX_MINORITY);
    MixSetup {
        targets,
        funcs,
        stream,
    }
}

fn mix_session(sz: Sizes) -> ServeSession {
    ServeSession::new(ServeConfig {
        cache_cap: sz.cache_cap,
        ..ServeConfig::default()
    })
}

fn mix_id(req: &MixRequest) -> usize {
    req.func * MIX_TARGETS.len() + req.target
}

/// Serves one mix request and checks the response against its reference.
fn serve_checked(
    session: &mut ServeSession,
    m: &MixSetup,
    req: &MixRequest,
    refs: &mut References,
) -> (f64, Result<bool, String>) {
    let t0 = Instant::now();
    let resp = guarded(|| session.handle_line(&req.line).response);
    let t = calib::at_reference(ms(t0.elapsed()));
    let res = resp.and_then(|resp| {
        let want = refs.get(mix_id(req), &m.funcs[req.func], &m.targets[req.target])?;
        check_response(&resp, want)
    });
    (t, res)
}

fn serve_mix(seed: u64, budget: Duration, sz: Sizes) -> Report {
    let mut r = Report::default();
    let (mut setup, (m, mut session)) = Setup::new(|| (mix_setup(seed, sz), mix_session(sz)));
    r.input_fingerprint = input_hash(&m.funcs);
    let mut refs = References::new();
    // One untimed cycle fills the cache. From then on the session's LRU
    // state at the start of every cycle is the same, so each position of
    // the cycle is a hit or a miss alike in every timed cycle.
    for req in &m.stream {
        let (_, res) = serve_checked(&mut session, &m, req, &mut refs);
        r.attempt(res.map(|_| ()));
    }
    // The deterministic counts cover the whole pool on the common target,
    // whatever part of the stream a run gets through.
    for (f, func) in m.funcs.iter().enumerate() {
        let id = f * MIX_TARGETS.len();
        let res = refs.get(id, func, &m.targets[0]).map(|_| ());
        r.attempt(res);
    }
    let pool: Vec<(&usize, &Reference)> = refs
        .ok()
        .filter(|(id, _)| *id % MIX_TARGETS.len() == 0)
        .collect();
    quality_metrics(&mut r, pool.into_iter());

    let mut probe = Probe::new(seed, sz);
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < m.stream.len() || start.elapsed() < budget {
        let slot = i % m.stream.len();
        if slot == 0 {
            if i > 0 {
                setup.again();
            }
            probe.pass(&mut r);
        }
        let req = &m.stream[slot];
        i += 1;
        let (t, res) = serve_checked(&mut session, &m, req, &mut refs);
        let hit = *res.as_ref().unwrap_or(&false);
        if res.is_err() {
            session = mix_session(sz);
        }
        r.attempt(res.map(|_| ()));
        ops.push(Op {
            ms: t,
            hit,
            slot,
            item: mix_id(req),
            size: m.funcs[req.func].num_insts(),
        });
    }
    let timed = ops.len();
    let ops = typical(&ops);
    let misses: Vec<Op> = ops.iter().filter(|o| !o.hit).copied().collect();
    r.notes.push(format!(
        "{timed} timed requests, {:.1} cycles of {}: {} hit and {} miss positions",
        timed as f64 / m.stream.len() as f64,
        m.stream.len(),
        ops.len() - misses.len(),
        misses.len()
    ));
    op_metrics(&mut r, &ops);
    fn_metrics(&mut r, &misses);
    largest_metric(&mut r, &misses);
    r.metric("growth_4x", probe.growth(), "ratio");
    finish_e2e(&mut r, setup.median_s());
    r
}

struct ScaleSetup {
    tgt: TargetDesc,
    funcs: Vec<Function>,
    lines: Vec<String>,
}

fn scale_setup(seed: u64, sz: Sizes) -> ScaleSetup {
    let funcs: Vec<Function> = sz
        .scale_sizes
        .iter()
        .map(|&(n, live)| scale_func(seed, n, live))
        .collect();
    let lines = funcs
        .iter()
        .map(|f| {
            pdgc_bench::serve::request_line(&f.to_string(), "ia64-24", "full", CheckMode::Always)
        })
        .collect();
    ScaleSetup {
        tgt: target("ia64-24"),
        funcs,
        lines,
    }
}

/// Index of the largest size and of the size a quarter of it, both on the
/// largest size's `live` series.
fn curve_ends(sz: Sizes) -> (usize, usize) {
    let last = sz.scale_sizes.len() - 1;
    let (n, live) = sz.scale_sizes[last];
    let small = sz
        .scale_sizes
        .iter()
        .position(|&(m, l)| l == live && m * 4 == n)
        .expect("the curve spans 4x");
    (last, small)
}

fn scale(seed: u64, budget: Duration, sz: Sizes) -> Report {
    let mut r = Report::default();
    let (mut setup, s) = Setup::new(|| scale_setup(seed, sz));
    r.input_fingerprint = input_hash(&s.funcs);
    let mut refs = References::new();
    for (i, f) in s.funcs.iter().enumerate() {
        let res = refs.get(i, f, &s.tgt).map(|_| ());
        r.attempt(res);
    }
    let (big, small) = curve_ends(sz);
    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.is_empty() || start.elapsed() < budget {
        if !ops.is_empty() {
            setup.again();
        }
        // A fresh session per pass: every size's first request is a miss,
        // the repeat a hit.
        let mut session = ServeSession::new(ServeConfig::default());
        for (i, line) in s.lines.iter().enumerate() {
            for want_hit in [false, true] {
                let t0 = Instant::now();
                let resp = guarded(|| session.handle_line(line).response);
                let t = calib::at_reference(ms(t0.elapsed()));
                let res = resp.and_then(|resp| {
                    let hit = check_response(&resp, refs.get(i, &s.funcs[i], &s.tgt)?)?;
                    if hit == want_hit {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: cached={hit}, expected {want_hit}",
                            s.funcs[i].name
                        ))
                    }
                });
                if res.is_err() {
                    session = ServeSession::new(ServeConfig::default());
                }
                r.attempt(res);
                ops.push(Op {
                    ms: t,
                    hit: want_hit,
                    slot: i,
                    item: i,
                    size: s.funcs[i].num_insts(),
                });
            }
        }
    }
    let ops = typical(&ops);
    let misses: Vec<Op> = ops.iter().filter(|o| !o.hit).copied().collect();
    op_metrics(&mut r, &ops);
    fn_metrics(&mut r, &misses);
    // One miss per size, in size order.
    r.metric("largest_s", misses[big].ms / 1e3, "s");
    r.metric("growth_4x", misses[big].ms / misses[small].ms, "ratio");
    for (i, &(n, live)) in sz.scale_sizes.iter().enumerate() {
        let of = |hit: bool| {
            ops.iter()
                .find(|o| o.slot == i && o.hit == hit)
                .map_or(0.0, |o| o.ms)
        };
        r.notes.push(format!(
            "curve N={n:<5} L={live:<3} miss {:>9.2} ms  hit {:>8.2} ms",
            of(false),
            of(true)
        ));
    }
    quality_metrics(&mut r, refs.ok());
    finish_e2e(&mut r, setup.median_s());
    r
}

// ---------------------------------------------------------------------
// The traced run.

/// Per-request serve layer totals of one traced serve pass.
#[derive(Debug, Default)]
struct ServeLayers {
    json_ns: u64,
    parse_ns: u64,
    verify_ns: u64,
    key_ns: u64,
    handle_ns: u64,
    /// Allocator and checker time inside `handle_line`, by the session's
    /// own phase clocks.
    alloc_ns: u64,
    requests: u64,
    hits: u64,
    evictions: u64,
    rechecks: u64,
}

fn phase_ns(m: &MetricsRegistry) -> u64 {
    Phase::ALL.iter().map(|&p| m.latency_hist(p).sum).sum()
}

/// Times the layers `handle_line` goes through for one line, by calling
/// the same public functions on the same input, then the line itself.
fn serve_traced(
    session: &mut ServeSession,
    line: &str,
    target: &str,
    layers: &mut ServeLayers,
) -> Result<String, String> {
    let t0 = Instant::now();
    let json = Json::parse(line)?;
    let t1 = Instant::now();
    let ir = json["fn"].as_str().ok_or("request without `fn`")?;
    let func = parse_function(ir).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    func.verify().map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    std::hint::black_box(cache_key(&func, target, "full", CheckMode::Always));
    let t4 = Instant::now();
    let before = phase_ns(session.metrics());
    let resp = guarded(|| session.handle_line(line).response)?;
    let t5 = Instant::now();
    layers.json_ns += (t1 - t0).as_nanos() as u64;
    layers.parse_ns += (t2 - t1).as_nanos() as u64;
    layers.verify_ns += (t3 - t2).as_nanos() as u64;
    layers.key_ns += (t4 - t3).as_nanos() as u64;
    layers.handle_ns += (t5 - t4).as_nanos() as u64;
    layers.alloc_ns += phase_ns(session.metrics()) - before;
    layers.requests += 1;
    Ok(resp)
}

fn close_serve_layers(layers: &mut ServeLayers, session: &ServeSession) {
    let m = session.metrics();
    layers.hits = m.get(Counter::CacheHits);
    layers.evictions = m.get(Counter::CacheEvictions);
    layers.rechecks = m.get(Counter::CacheHitChecks);
}

/// The stepping comparison's per-pass measurements.
#[derive(Default)]
struct Passes {
    traced: Vec<StageTotals>,
    traced_wall: Vec<f64>,
    /// Per untraced pass: the program's own phase-clock sums.
    program: Vec<[u64; 9]>,
    untraced_wall: Vec<f64>,
    allocs_per_fn: Vec<f64>,
    spill_insts: u64,
    moves_left: u64,
    caller_saves: u64,
}

/// Alternates untraced `allocate_scratch` passes with stepped passes over
/// `items` until both sides have at least two measured passes and the
/// budget is spent. Every stepped output's fingerprint must equal the
/// untraced one's.
fn stepping(r: &mut Report, items: &[(&Function, &TargetDesc)], budget: Duration) -> Passes {
    let mut p = Passes::default();
    let mut scratch = PhaseScratch::new();
    let mut fps: Vec<Option<u64>> = vec![None; items.len()];
    // The unmeasured first pass warms the pools and records the untraced
    // fingerprints and counts.
    let mut untraced =
        |p: &mut Passes, r: &mut Report, scratch: &mut PhaseScratch, measured: bool| {
            scratch.metrics = MetricsRegistry::default();
            let a0 = heap::allocations();
            let t0 = Instant::now();
            for (i, &(f, tgt)) in items.iter().enumerate() {
                match allocate(f, tgt, scratch) {
                    Ok(out) => {
                        let fp = fingerprint_mach(&out.mach);
                        if !measured {
                            fps[i] = Some(fp);
                            p.spill_insts += out.stats.spill_instructions as u64;
                            p.moves_left += out.stats.copies_remaining as u64;
                            p.caller_saves += out.stats.caller_save_insts as u64;
                        }
                        out.recycle(scratch);
                        r.attempt(Ok(()));
                    }
                    Err(e) => {
                        *scratch = PhaseScratch::new();
                        r.attempt(Err(e));
                    }
                }
            }
            if measured {
                p.untraced_wall.push(ms(t0.elapsed()));
                p.allocs_per_fn
                    .push((heap::allocations() - a0) as f64 / items.len() as f64);
                let mut sums = [0u64; 9];
                for (s, &ph) in sums.iter_mut().zip(Phase::ALL.iter()) {
                    *s = scratch.metrics.latency_hist(ph).sum;
                }
                p.program.push(sums);
            }
            fps.clone()
        };
    let reference = untraced(&mut p, r, &mut scratch, false);
    let start = Instant::now();
    while p.traced.len() < 2 || p.program.len() < 2 || start.elapsed() < budget {
        let mut t = StageTotals::default();
        let t0 = Instant::now();
        let mut outs = Vec::with_capacity(items.len());
        for &(f, tgt) in items {
            outs.push(guarded(|| step_full(f, tgt, &mut scratch, &mut t)).and_then(|x| x));
        }
        p.traced_wall.push(ms(t0.elapsed()));
        p.traced.push(t);
        for ((out, want), &(f, _)) in outs.into_iter().zip(&reference).zip(items) {
            let res = out.and_then(|out| {
                let fp = fingerprint_mach(&out.mach);
                out.recycle(&mut scratch);
                match want {
                    Some(w) if *w == fp => Ok(()),
                    _ => Err(format!(
                        "{}: traced fingerprint {fp:016x} differs from untraced",
                        f.name
                    )),
                }
            });
            if res.is_err() {
                scratch = PhaseScratch::new();
            }
            r.attempt(res);
        }
        untraced(&mut p, r, &mut scratch, true);
    }
    let combined = reference.iter().fold(0u64, |h, fp| fnv(h, fp.unwrap_or(0)));
    r.counts.insert("fingerprints", combined);
    p
}

/// The program phase each traced stage is clocked under, if any: the
/// strategy's simplify span covers CPG build, and RPG build is unclocked.
fn program_phase(s: Stage) -> Option<Phase> {
    Some(match s {
        Stage::Lower => Phase::Lower,
        Stage::Analyze => Phase::Analyze,
        Stage::Build => Phase::Build,
        Stage::Rpg => return None,
        Stage::Simplify | Stage::Cpg => Phase::Simplify,
        Stage::Select => Phase::Select,
        Stage::Spill => Phase::Spill,
        Stage::Rewrite => Phase::Rewrite,
        Stage::Check => Phase::Check,
    })
}

/// Compares stepped stage times with the program's own phase clocks for
/// the same functions, prints the comparison to stderr, and returns the
/// largest relative disagreement.
fn cross_check(p: &Passes) -> f64 {
    let spread = |xs: &[f64]| -> f64 {
        let m = median(xs).unwrap_or(0.0);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(0.0, f64::max);
        if m > 0.0 {
            (hi - lo) / m
        } else {
            0.0
        }
    };
    let mut worst = 0.0f64;
    eprintln!("cross-check: stepped stage time vs the program's phase clocks (median ms per pass)");
    for (pi, &ph) in Phase::ALL.iter().enumerate() {
        let stepped: Vec<f64> = p
            .traced
            .iter()
            .map(|t| {
                Stage::ALL
                    .iter()
                    .filter(|&&s| program_phase(s) == Some(ph))
                    .map(|&s| t.ns(s) as f64 / 1e6)
                    .sum()
            })
            .collect();
        let program: Vec<f64> = p.program.iter().map(|s| s[pi] as f64 / 1e6).collect();
        let (a, b) = (
            median(&stepped).unwrap_or(0.0),
            median(&program).unwrap_or(0.0),
        );
        if a == 0.0 && b == 0.0 {
            continue;
        }
        let dev = if b > 0.0 { a / b - 1.0 } else { f64::INFINITY };
        let noise = spread(&stepped).max(spread(&program));
        let verdict = if dev.abs() > noise {
            "DISAGREE"
        } else {
            "agree"
        };
        eprintln!(
            "  {:<9} stepped {a:>10.3}  program {b:>10.3}  dev {:>+7.1}%  noise {:>5.1}%  {verdict}",
            format!("{ph:?}"),
            dev * 100.0,
            noise * 100.0
        );
        if b > 0.0 {
            worst = worst.max(dev.abs());
        }
    }
    worst
}

fn traced(w: Workload, seed: u64, budget: Duration, sz: Sizes) -> Report {
    let mut r = Report::default();
    let mut layers = ServeLayers::default();
    let passes;
    match w {
        Workload::Suite => {
            let tgt = target("ia64-24");
            let funcs = suite_funcs(seed, SUITE_SALT, sz.suite_copies, &tgt);
            r.input_fingerprint = input_hash(&funcs);
            let items: Vec<(&Function, &TargetDesc)> = funcs.iter().map(|f| (f, &tgt)).collect();
            passes = stepping(&mut r, &items, budget);
        }
        Workload::ServeMix => {
            let m = mix_setup(seed, sz);
            r.input_fingerprint = input_hash(&m.funcs);
            let mut refs = References::new();
            let mut session = mix_session(sz);
            let mut distinct: Vec<&MixRequest> = Vec::new();
            for req in m.stream.iter().cycle().take(sz.trace_requests) {
                let res = serve_traced(
                    &mut session,
                    &req.line,
                    MIX_TARGETS[req.target],
                    &mut layers,
                )
                .and_then(|resp| {
                    check_response(
                        &resp,
                        refs.get(mix_id(req), &m.funcs[req.func], &m.targets[req.target])?,
                    )
                });
                if res.is_err() {
                    session = mix_session(sz);
                }
                r.attempt(res.map(|_| ()));
                if !distinct.iter().any(|d| mix_id(d) == mix_id(req)) {
                    distinct.push(req);
                }
            }
            close_serve_layers(&mut layers, &session);
            let items: Vec<(&Function, &TargetDesc)> = distinct
                .iter()
                .map(|d| (&m.funcs[d.func], &m.targets[d.target]))
                .collect();
            passes = stepping(&mut r, &items, budget);
        }
        Workload::Scale => {
            let s = scale_setup(seed, sz);
            r.input_fingerprint = input_hash(&s.funcs);
            let mut refs = References::new();
            let mut session = ServeSession::new(ServeConfig::default());
            for (i, line) in s.lines.iter().enumerate() {
                for _ in 0..2 {
                    let res = serve_traced(&mut session, line, "ia64-24", &mut layers)
                        .and_then(|resp| check_response(&resp, refs.get(i, &s.funcs[i], &s.tgt)?));
                    r.attempt(res.map(|_| ()));
                }
            }
            close_serve_layers(&mut layers, &session);
            let items: Vec<(&Function, &TargetDesc)> =
                s.funcs.iter().map(|f| (f, &s.tgt)).collect();
            passes = stepping(&mut r, &items, budget);
        }
    }

    let l = &layers;
    let child_ns = l.json_ns + l.parse_ns + l.verify_ns + l.key_ns + l.alloc_ns;
    r.metric("obs.json_decode_ms", l.json_ns as f64 / 1e6, "ms");
    r.metric("ir.parse_ms", l.parse_ns as f64 / 1e6, "ms");
    r.metric("ir.verify_ms", l.verify_ns as f64 / 1e6, "ms");
    r.metric("serve.key_ms", l.key_ns as f64 / 1e6, "ms");
    r.metric(
        "serve.self_ms",
        l.handle_ns.saturating_sub(child_ns) as f64 / 1e6,
        "ms",
    );
    let hit_ratio = if l.requests > 0 {
        l.hits as f64 / l.requests as f64
    } else {
        0.0
    };
    r.metric("serve.hit_ratio", hit_ratio, "ratio");
    r.metric("serve.evictions", l.evictions as f64, "count");
    r.metric("serve.rechecks", l.rechecks as f64, "count");
    r.counts.insert("serve.hits", l.hits);
    r.counts.insert("serve.requests", l.requests);
    r.counts.insert("serve.evictions", l.evictions);

    let stage_ms = |s: Stage| {
        let v: Vec<f64> = passes.traced.iter().map(|t| t.ns(s) as f64 / 1e6).collect();
        median(&v).unwrap_or(0.0)
    };
    for (name, s) in [
        ("core.lower_ms", Stage::Lower),
        ("analysis.analyze_ms", Stage::Analyze),
        ("core.build_ms", Stage::Build),
        ("core.rpg_ms", Stage::Rpg),
        ("core.simplify_ms", Stage::Simplify),
        ("core.cpg_ms", Stage::Cpg),
        ("core.select_ms", Stage::Select),
        ("core.spill_ms", Stage::Spill),
        ("core.rewrite_ms", Stage::Rewrite),
    ] {
        r.metric(name, stage_ms(s), "ms");
    }
    let t0 = passes.traced.first().cloned().unwrap_or_default();
    let nodes = t0.ifg_nodes.max(1) as f64;
    r.metric(
        "core.select_ns_per_node",
        stage_ms(Stage::Select) * 1e6 / nodes,
        "ns/node",
    );
    r.metric(
        "core.simplify_ns_per_node",
        stage_ms(Stage::Simplify) * 1e6 / nodes,
        "ns/node",
    );
    r.metric("core.ifg_nodes", t0.ifg_nodes as f64, "count");
    r.metric("core.ifg_edges", t0.ifg_edges as f64, "count");
    r.metric("core.rounds", t0.rounds as f64, "count");
    r.metric("check.check_ms", stage_ms(Stage::Check), "ms");
    r.metric(
        "check.ns_per_inst",
        stage_ms(Stage::Check) * 1e6 / t0.mach_insts.max(1) as f64,
        "ns/inst",
    );
    r.metric("check.mach_insts", t0.mach_insts as f64, "count");
    r.metric(
        "arena.allocs_per_fn",
        median(&passes.allocs_per_fn).unwrap_or(0.0),
        "allocs/fn",
    );
    r.metric("core.spill_insts", passes.spill_insts as f64, "count");
    r.metric("core.moves_left", passes.moves_left as f64, "count");
    r.metric(
        "core.caller_save_insts",
        passes.caller_saves as f64,
        "count",
    );
    for (name, v) in [
        ("core.ifg_nodes", t0.ifg_nodes),
        ("core.ifg_edges", t0.ifg_edges),
        ("core.rounds", t0.rounds),
        ("check.mach_insts", t0.mach_insts),
        ("core.spill_insts", passes.spill_insts),
        ("core.moves_left", passes.moves_left),
    ] {
        r.counts.insert(name, v);
    }
    r.metric(
        "trace.overhead_ms",
        median(&passes.traced_wall).unwrap_or(0.0) - median(&passes.untraced_wall).unwrap_or(0.0),
        "ms",
    );
    r.metric("trace.xcheck_max_dev", cross_check(&passes), "ratio");
    r.metric(
        "error_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    r
}
