//! Every pipeline phase has one clock. A phase span reads the time once
//! at start and once at finish, records the duration into the always-on
//! metrics registry, and hands the same nanoseconds to an enabled tracer.
//! So, for every allocator and every phase, the traced `Span` events and
//! the registry's latency histogram must agree exactly — and the registry
//! must see the same spans whether or not a tracer is attached.

use pdgc::prelude::*;

/// Twelve loads live at once plus copies of half of them: more values
/// than `tight8` has integer registers, so every allocator spills and
/// iterates, and the copies give the coalescing baselines work.
fn spilling() -> Function {
    let mut b = FunctionBuilder::new("spilling", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let vals: Vec<VReg> = (0..12).map(|i| b.load(p, 16 * i)).collect();
    let copies: Vec<VReg> = vals.iter().step_by(2).map(|&v| b.copy(v)).collect();
    let mut acc = vals[0];
    for &v in vals[1..].iter().chain(&copies) {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    b.finish()
}

/// Per-phase `(span count, summed nanoseconds)` of the traced events.
fn traced_spans(events: &[Event]) -> [(u64, u64); Phase::ALL.len()] {
    let mut out = [(0u64, 0u64); Phase::ALL.len()];
    for e in events {
        if let Event::Span { phase, nanos, .. } = e {
            let slot = &mut out[phase.index()];
            slot.0 += 1;
            slot.1 += u64::try_from(*nanos).expect("span fits in u64 nanoseconds");
        }
    }
    out
}

#[test]
fn traced_spans_and_registry_latency_are_one_clock() {
    let func = spilling();
    let target = TargetDesc::tight8();
    for alloc in pdgc::all_allocators() {
        let name = alloc.name();
        let mut rec = RecordingTracer::default();
        rec.set_enabled(true);
        let mut traced = PhaseScratch::default();
        let out = alloc
            .allocate_scratch(
                &func,
                &target,
                &mut rec,
                CheckMode::Always,
                CheckScope::Full,
                &mut traced,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.stats.spill_instructions > 0, "{name}: fixture must spill");

        let mut untraced = PhaseScratch::default();
        alloc
            .allocate_scratch(
                &func,
                &target,
                &mut NoopTracer,
                CheckMode::Always,
                CheckScope::Full,
                &mut untraced,
            )
            .unwrap_or_else(|e| panic!("{name} (untraced): {e}"));

        let spans = traced_spans(rec.events());
        for p in Phase::ALL {
            let hist = traced.metrics.latency_hist(p);
            let (count, nanos) = spans[p.index()];
            assert_eq!(nanos, hist.sum, "{name}: {} span nanos vs registry sum", p.as_str());
            assert_eq!(count, hist.count, "{name}: {} span count vs registry count", p.as_str());
            assert_eq!(
                untraced.metrics.latency_hist(p).count,
                hist.count,
                "{name}: {} span count depends on the tracer",
                p.as_str()
            );
        }
        // Strategy-timed phases reach the registry for every allocator.
        for p in [Phase::Select, Phase::Spill, Phase::Check] {
            assert!(traced.metrics.latency_hist(p).count > 0, "{name}: no {} spans", p.as_str());
        }
    }
}
