//! Trace-replay oracle for §5.3 step 3.
//!
//! Production select keeps its frontier in a lazy heap and its register
//! sets in masks updated incrementally; this test re-derives every step-3
//! choice the slow, obvious way. Each case builds a random interference
//! graph (with some pre-coalesced nodes), a random preference graph over
//! every preference kind and target (negative strengths, `i64::MIN` on the
//! side a volatility preference does not admit, arbitrary `Set` masks) and
//! the CPG simplify produces, runs select with a [`RecordingTracer`], and
//! replays the decision stream. Before each decision it recomputes, from
//! the assignments the earlier decisions imply:
//!
//! * the ready frontier (CPG nodes whose predecessors are all decided);
//! * every frontier node's strength differential, by a full neighbour scan
//!   for occupancy and a per-register, per-preference evaluation (DESIGN
//!   §3's definition, with no caching);
//! * the available-register count of the chosen node;
//!
//! and asserts the recorded node is the argmax (lowest id on ties) and the
//! recorded `frontier`, `differential` and `available` match. It runs on
//! every builtin target plus a 64-register target, whose top register
//! exercises the full-word mask edge.

use pdgc::core::cpg::Cpg;
use pdgc::core::ifg::InterferenceGraph;
use pdgc::core::node::{NodeId, NodeMap};
use pdgc::core::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc::core::select::{select_traced_in, SelectConfig, SelectScratch};
use pdgc::core::simplify::{simplify, SimplifyMode};
use pdgc::obs::{Decision, Verdict};
use pdgc::prelude::*;
use pdgc::target::{ClassSpec, PairRule, PairedLoadRule, TargetBuilder, TargetRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 64-register target: an irregular volatile mask that includes the top
/// register, and a different pair rule per class.
fn wide64() -> TargetDesc {
    TargetBuilder::new("wide64")
        .class(
            RegClass::Int,
            ClassSpec::new(64)
                .volatile_mask(0xf00f_0ff0_00ff_f00f | 1 << 63)
                .pair(PairRule::new(PairedLoadRule::Sequential, 8)),
        )
        .class(
            RegClass::Float,
            ClassSpec::new(64)
                .volatile_prefix(32)
                .pair(PairRule::new(PairedLoadRule::Parity, 8)),
        )
        .finish()
        .expect("wide64 is a valid description")
}

/// A node universe of `target`'s integer class with `m` live ranges
/// (after the precolored registers and a base address).
fn universe(target: &TargetDesc, m: usize) -> NodeMap {
    let mut b = FunctionBuilder::new("oracle", vec![], None);
    let base = b.iconst(0);
    let vs: Vec<_> = (0..m).map(|i| b.load(base, (i * 8) as i32)).collect();
    for &v in &vs {
        b.store(v, base, 0);
    }
    b.ret(None);
    let func = b.finish();
    NodeMap::build(&func, target, RegClass::Int, &vec![None; func.num_vregs()])
}

fn random_strength(rng: &mut StdRng) -> i64 {
    rng.gen_range(-40i64..=60)
}

fn random_pref(rng: &mut StdRng, holder: usize, num_nodes: usize, file: u64) -> Preference {
    let kind = match rng.gen_range(0..4u32) {
        0 => PrefKind::Coalesce,
        1 => PrefKind::SequentialPlus,
        2 => PrefKind::SequentialMinus,
        _ => PrefKind::Prefers,
    };
    let (mut strength_vol, mut strength_nonvol) = (random_strength(rng), random_strength(rng));
    let target = match rng.gen_range(0..6u32) {
        0 => {
            if rng.gen_bool(0.5) {
                strength_nonvol = i64::MIN;
            }
            PrefTarget::Volatile
        }
        1 => {
            if rng.gen_bool(0.5) {
                strength_vol = i64::MIN;
            }
            PrefTarget::NonVolatile
        }
        2 => PrefTarget::Set(if rng.gen_bool(0.5) {
            rng.gen::<u64>() & file
        } else {
            rng.gen::<u64>()
        }),
        _ => {
            let mut m = rng.gen_range(0..num_nodes);
            if m == holder {
                m = (m + 1) % num_nodes;
            }
            PrefTarget::Node(NodeId::new(m))
        }
    };
    Preference {
        kind,
        target,
        strength_vol,
        strength_nonvol,
    }
}

/// Whether `r` honors `pref` under `assignment` (the partner resolved
/// through its coalesced representative).
fn admits(
    pref: &Preference,
    r: PhysReg,
    ifg: &InterferenceGraph,
    target: &TargetDesc,
    assignment: &[Option<PhysReg>],
) -> bool {
    match pref.target {
        PrefTarget::Volatile => target.is_volatile(r),
        PrefTarget::NonVolatile => !target.is_volatile(r),
        PrefTarget::Set(mask) => r.index() < 64 && (mask >> r.index()) & 1 == 1,
        PrefTarget::Node(m) => match assignment[ifg.rep(m).index()] {
            None => false,
            Some(p) => match pref.kind {
                PrefKind::Coalesce => r == p,
                PrefKind::SequentialPlus => target.pair_allows(r, p),
                PrefKind::SequentialMinus => target.pair_allows(p, r),
                PrefKind::Prefers => false,
            },
        },
    }
}

/// Step 3 by definition: (differential, available-register count) of `x`.
fn naive_differential(
    x: NodeId,
    ifg: &InterferenceGraph,
    nodes: &NodeMap,
    rpg: &Rpg,
    target: &TargetDesc,
    assignment: &[Option<PhysReg>],
) -> (i64, u32) {
    let used: Vec<PhysReg> = ifg
        .neighbors_slice(x)
        .iter()
        .filter_map(|y| assignment[y.index()])
        .collect();
    let (mut best, mut worst, mut available) = (i64::MIN, i64::MAX, 0);
    for r in target.regs(nodes.class()).filter(|r| !used.contains(r)) {
        available += 1;
        let s = rpg
            .prefs(x)
            .iter()
            .filter(|p| admits(p, r, ifg, target, assignment))
            .map(|p| p.strength_with(r, target))
            .max()
            .unwrap_or(0);
        best = best.max(s);
        worst = worst.min(s);
    }
    if available == 0 {
        (i64::MIN + 1, 0)
    } else {
        (best - worst, available)
    }
}

/// Builds one random case on `target`, runs select traced, and replays the
/// decisions against the naive step 3. Returns the decision count.
fn check_case(target: &TargetDesc, rng: &mut StdRng) -> usize {
    let class = RegClass::Int;
    let k = target.num_regs(class);
    let file = u64::MAX >> (64 - k);
    let m = rng.gen_range(4..40usize);
    let nodes = universe(target, m);
    let (nn, np) = (nodes.num_nodes(), nodes.num_phys());
    let mut ifg = InterferenceGraph::new(nn, np);
    let density = rng.gen_range(0.05..0.6);
    for a in np..nn {
        for b in a + 1..nn {
            if rng.gen_bool(density) {
                ifg.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        for p in 0..np {
            if rng.gen_bool(0.08) {
                ifg.add_edge(NodeId::new(a), NodeId::new(p));
            }
        }
    }
    // Pre-coalesce a few non-interfering pairs, occasionally into a
    // precolored register, so preference partners resolve through `rep`.
    for _ in 0..rng.gen_range(0..4u32) {
        let a = NodeId::new(if rng.gen_bool(0.2) {
            rng.gen_range(0..np)
        } else {
            rng.gen_range(np..nn)
        });
        let b = NodeId::new(rng.gen_range(np..nn));
        if !ifg.is_merged(b) && ifg.rep(a) != ifg.rep(b) && !ifg.interferes(a, b) {
            ifg.merge(a, b);
        }
    }
    let mut rpg = Rpg::new(nn);
    for h in np..nn {
        for _ in 0..rng.gen_range(0..5u32) {
            rpg.add(NodeId::new(h), random_pref(rng, h, nn, file));
        }
    }
    let costs: Vec<u64> = (0..nn).map(|_| rng.gen_range(1..100u64)).collect();
    let sr = simplify(&mut ifg, k, &costs, SimplifyMode::Optimistic);
    ifg.restore_all();
    let cpg = Cpg::build(&ifg, &sr.stack, &sr.optimistic, k);
    let config = SelectConfig {
        active_spill: rng.gen_bool(0.7),
        nonvolatile_first: rng.gen_bool(0.3),
    };
    let mut tracer = RecordingTracer::default();
    let result = select_traced_in(
        &ifg,
        &nodes,
        &rpg,
        &cpg,
        target,
        &vec![false; nn],
        &costs,
        config,
        1,
        &mut tracer,
        &mut SelectScratch::new(),
    );

    let mut assignment: Vec<Option<PhysReg>> = (0..nn)
        .map(|i| (i < np).then(|| nodes.phys_reg(NodeId::new(i))))
        .collect();
    let mut decided = vec![false; nn];
    let decisions: Vec<&Decision> = tracer.decisions();
    for (step, d) in decisions.iter().enumerate() {
        let frontier: Vec<NodeId> = cpg
            .nodes()
            .filter(|&x| !decided[x.index()] && cpg.preds(x).iter().all(|p| decided[p.index()]))
            .collect();
        let ctx = format!("{} step {step}", target.name);
        assert_eq!(d.frontier as usize, frontier.len(), "{ctx}: frontier size");
        let (best, best_diff) = frontier
            .iter()
            .map(|&x| (x, naive_differential(x, &ifg, &nodes, &rpg, target, &assignment).0))
            .fold(None, |acc: Option<(NodeId, i64)>, (x, dx)| match acc {
                Some((_, da)) if da >= dx => acc,
                _ => Some((x, dx)),
            })
            .expect("a decision implies a non-empty frontier");
        assert_eq!(d.node as usize, best.index(), "{ctx}: argmax node");
        assert_eq!(d.differential, best_diff, "{ctx}: differential");
        let (_, available) = naive_differential(best, &ifg, &nodes, &rpg, target, &assignment);
        assert_eq!(d.available, available, "{ctx}: available registers");
        if let Verdict::Assigned { reg } = d.verdict {
            assert!(
                ifg.neighbors_slice(best)
                    .iter()
                    .all(|y| assignment[y.index()] != Some(reg)),
                "{ctx}: {reg} is held by a neighbour"
            );
            assignment[best.index()] = Some(reg);
        }
        decided[best.index()] = true;
    }
    assert_eq!(decisions.len(), cpg.nodes().count(), "every CPG node decided");
    assert_eq!(result.assignment, assignment, "replayed assignment matches");
    decisions.len()
}

#[test]
fn step3_replays_against_the_naive_definition_on_every_target() {
    let mut targets: Vec<TargetDesc> = TargetRegistry::builtin().iter().cloned().collect();
    targets.push(wide64());
    for (i, target) in targets.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x5e1ec7 + i as u64);
        let decisions: usize = (0..40).map(|_| check_case(target, &mut rng)).sum();
        assert!(decisions > 0, "{}: no decisions replayed", target.name);
    }
}
