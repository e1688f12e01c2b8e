//! The integrated, preference-directed select phase — §5.3 of the paper.
//!
//! Select walks the ready frontier of the [`Cpg`]: at each step it
//!
//! 1. evaluates every frontier node's honorable preferences against prior
//!    register selections (paper steps 2.1–2.3),
//! 2. picks the node with the largest *strength differential* — the node
//!    with the most at stake between its best and worst register choice
//!    (step 3),
//! 3. assigns it a register by screening the available set through its
//!    preferences, strongest first (steps 4.1–4.4), reserving registers
//!    that not-yet-allocated preference partners will need (step 4.3),
//!    spilling when no register is available — or *actively* when the
//!    node's strongest preference is to live in memory (§5.4),
//! 4. releases its CPG successors (step 5).
//!
//! Spill decisions, coalescing (same-register selection), and every
//! preference type are thereby resolved simultaneously.
//!
//! # Register sets are `u64` masks
//!
//! A class has at most [`MAX_REGS`] = 64 registers, so every register set
//! here is one word: bit `i` is register `i` of the class. Each node keeps
//! an *occupancy mask* — the registers held by its assigned interference
//! neighbours — seeded once from the precolored nodes and updated per
//! edge when a node is assigned, so a node's available set is
//! `file & !occ[n]`. Each preference maps to an *admit mask* (the
//! registers that would honor it under the current assignments), and
//! steps 2–4 are mask intersections: narrowing is `&`, a screen's strength
//! is the larger of its volatile and non-volatile strengths over the
//! volatility classes present, and step 4.4 picks the lowest set bit.
//!
//! # The frontier is a lazy max-heap
//!
//! Step 3's differential of a node changes only when its occupancy mask
//! gains a bit or one of its preference partners is assigned. After each
//! assignment exactly those frontier nodes are recomputed and re-pushed
//! into a max-heap keyed by (differential, lowest id); a popped entry whose
//! node has left the frontier or whose value is no longer the node's
//! current differential is stale and skipped. The pop therefore picks the
//! same node a full frontier scan would: the largest differential, lowest
//! node id on ties.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cpg::Cpg;
use crate::ifg::InterferenceGraph;
use crate::node::{NodeId, NodeMap};
use crate::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc_arena::{NestedPool, VecPool};
use pdgc_obs::{
    Considered, Counter, Decision, Event, MetricsRegistry, SpillReason, Tracer, ValueHist, Verdict,
};
use pdgc_target::{PhysReg, TargetDesc, MAX_REGS};

/// Resettable scratch for [`select_traced_in`]: the reverse-preference
/// index, the per-node occupancy masks and cached differentials, the
/// frontier heap, and the result vectors handed back by
/// [`SelectResult::recycle`]. A warm scratch makes an untraced select
/// allocation-free.
#[derive(Debug, Default)]
pub struct SelectScratch {
    rev_pref: NestedPool<NodeId>,
    assignments: VecPool<Option<PhysReg>>,
    bools: VecPool<bool>,
    diffs: VecPool<i64>,
    masks: VecPool<u64>,
    counts: VecPool<usize>,
    nodes: VecPool<NodeId>,
    /// The lazy step-3 frontier: (differential, `Reverse(node id)`).
    heap: BinaryHeap<(i64, Reverse<u32>)>,
    /// Frontier nodes whose differential an assignment may have changed.
    dirty: Vec<NodeId>,
    /// Reused per-node screening list (honorable + deferred preferences).
    screens: Vec<ScreenEntry>,
    /// Always-on screening-outcome counters (honored/deferred/skipped by
    /// preference kind, spill reasons, strength distribution, differential
    /// recomputes, frontier width) plus the strategy's per-class phase
    /// latencies. The pipeline drains this into the worker's
    /// `PhaseScratch` registry after every class.
    pub metrics: MetricsRegistry,
}

impl SelectScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Tunables for the select phase.
#[derive(Clone, Copy, Debug)]
pub struct SelectConfig {
    /// Spill a node whose strongest preference is negative (it prefers
    /// memory). Enabled by the full-preference allocator, disabled in
    /// coalescing-only mode.
    pub active_spill: bool,
    /// When no preference discriminates among the remaining candidates,
    /// pick the lowest-index non-volatile register first (the "simple
    /// heuristic" the paper gives preference-unaware allocators); otherwise
    /// pick the lowest index overall.
    pub nonvolatile_first: bool,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            active_spill: true,
            nonvolatile_first: false,
        }
    }
}

/// The outcome of selection for one class.
#[derive(Clone, Debug)]
pub struct SelectResult {
    /// Register per node (precolored nodes prefilled; `None` = spilled or
    /// not part of this universe).
    pub assignment: Vec<Option<PhysReg>>,
    /// Live-range nodes that must be spilled.
    pub spilled: Vec<NodeId>,
}

impl SelectResult {
    /// Returns this result's vectors to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut SelectScratch) {
        scratch.assignments.put(self.assignment);
        scratch.nodes.put(self.spilled);
    }
}

/// Runs preference-directed selection over one class, drawing every
/// per-select vector — the reverse preference index, assignment,
/// occupancy masks, differential cache, and frontier heap — from pooled
/// scratch. Recycle the result with [`SelectResult::recycle`].
///
/// `no_spill[n]` marks spill temporaries that must receive registers.
/// An enabled `tracer` receives one [`Decision`] event per node resolved:
/// the ready-frontier size, the strength differential, every preference
/// screened with its strength, and the verdict (register or spill with
/// its cost). `spill_costs` (per node, `u64::MAX` = unspillable) only
/// feeds the spill verdicts in the trace; pass `&[]` when untraced.
/// `round` labels the events with the pipeline's spill round.
///
/// # Panics
///
/// Panics if the CPG is cyclic (cannot happen for graphs built by
/// [`Cpg::build`]).
#[allow(clippy::too_many_arguments)]
pub fn select_traced_in(
    ifg: &InterferenceGraph,
    nodes: &NodeMap,
    rpg: &Rpg,
    cpg: &Cpg,
    target: &TargetDesc,
    no_spill: &[bool],
    spill_costs: &[u64],
    config: SelectConfig,
    round: u32,
    tracer: &mut dyn Tracer,
    scratch: &mut SelectScratch,
) -> SelectResult {
    let num_nodes = nodes.num_nodes();
    let class = nodes.class();
    // Reverse preference index: rev_pref[m] holds the nodes with a
    // preference targeting (the representative of) m. Assigning m makes
    // exactly those nodes' differentials stale.
    let mut rev_pref = scratch.rev_pref.take(num_nodes);
    let mut any_sequential = false;
    for i in 0..num_nodes {
        let holder = NodeId::new(i);
        for pref in rpg.prefs(holder) {
            if let PrefTarget::Node(m) = pref.target {
                rev_pref[ifg.rep(m).index()].push(holder);
            }
            any_sequential |= matches!(
                pref.kind,
                PrefKind::SequentialPlus | PrefKind::SequentialMinus
            );
        }
    }
    let mut assignment = scratch.assignments.take();
    assignment.extend((0..num_nodes).map(|i| {
        let n = NodeId::new(i);
        nodes.is_precolored(n).then(|| nodes.phys_reg(n))
    }));
    // Occupancy seeded from the precolored nodes; assignments add to it.
    let mut occ = scratch.masks.take_filled(num_nodes, 0);
    for p in (0..nodes.num_phys()).map(NodeId::new) {
        let bit = 1u64 << nodes.phys_reg(p).index();
        for &x in ifg.neighbors_slice(p) {
            occ[x.index()] |= bit;
        }
    }
    let num_regs = target.num_regs(class);
    debug_assert!(num_regs <= MAX_REGS);
    let file = u64::MAX.checked_shr(64 - num_regs as u32).unwrap_or(0);
    let volatile = target
        .regs(class)
        .filter(|&r| target.is_volatile(r))
        .fold(0u64, |m, r| m | 1 << r.index());
    // Pair masks: `pair_first[a]` holds every `b` with `pair_allows(a, b)`
    // and `pair_second[b]` every such `a`. Only sequential preferences
    // read them.
    let mut pair_first = [0u64; MAX_REGS];
    let mut pair_second = [0u64; MAX_REGS];
    if any_sequential {
        for a in target.regs(class) {
            for b in target.regs(class) {
                if target.pair_allows(a, b) {
                    pair_first[a.index()] |= 1 << b.index();
                    pair_second[b.index()] |= 1 << a.index();
                }
            }
        }
    }
    let mut heap = std::mem::take(&mut scratch.heap);
    heap.clear();
    Selector {
        ifg,
        nodes,
        rpg,
        cpg,
        no_spill,
        spill_costs,
        config,
        round,
        file,
        volatile,
        pair_first,
        pair_second,
        assignment,
        spilled: scratch.bools.take_filled(num_nodes, false),
        occ,
        rev_pref,
        diff: scratch.diffs.take_filled(num_nodes, 0),
        in_queue: scratch.bools.take_filled(num_nodes, false),
        dirty_flag: scratch.bools.take_filled(num_nodes, false),
        dirty: std::mem::take(&mut scratch.dirty),
        heap,
        live: 0,
        screen_buf: std::mem::take(&mut scratch.screens),
        metrics: std::mem::take(&mut scratch.metrics),
    }
    .run(tracer, scratch)
}

struct Selector<'a> {
    ifg: &'a InterferenceGraph,
    nodes: &'a NodeMap,
    rpg: &'a Rpg,
    cpg: &'a Cpg,
    no_spill: &'a [bool],
    spill_costs: &'a [u64],
    config: SelectConfig,
    round: u32,
    /// Every register of the class.
    file: u64,
    /// The class's volatile (caller-saved) registers.
    volatile: u64,
    /// `pair_first[a]`: registers `b` with `pair_allows(a, b)`.
    pair_first: [u64; MAX_REGS],
    /// `pair_second[b]`: registers `a` with `pair_allows(a, b)`.
    pair_second: [u64; MAX_REGS],
    assignment: Vec<Option<PhysReg>>,
    spilled: Vec<bool>,
    /// `occ[n]`: registers held by `n`'s assigned interference neighbours.
    occ: Vec<u64>,
    /// `rev_pref[m]`: nodes holding a preference that targets `m`'s
    /// representative.
    rev_pref: Vec<Vec<NodeId>>,
    /// Current step-3 differential of every frontier node.
    diff: Vec<i64>,
    /// Whether a node is on the ready frontier (released, not yet picked).
    in_queue: Vec<bool>,
    /// Dedup flags for `dirty`.
    dirty_flag: Vec<bool>,
    /// Frontier nodes to recompute after the current assignment.
    dirty: Vec<NodeId>,
    /// Lazy max-heap over (differential, `Reverse(id)`); entries that no
    /// longer match `diff` or `in_queue` are skipped on pop.
    heap: BinaryHeap<(i64, Reverse<u32>)>,
    /// Live frontier size.
    live: u32,
    /// Reused screening list, cleared between nodes.
    screen_buf: Vec<ScreenEntry>,
    /// Taken from the scratch for the duration of the select, parked back
    /// in `run`; every bump is an array write, never an allocation.
    metrics: MetricsRegistry,
}

/// One screened preference of the node being allocated: an *honorable*
/// preference carries the registers of the available set that honor it; a
/// *deferred* one (unallocated partner) carries no set — it narrows to the
/// registers that keep the partner able to honor it later.
#[derive(Debug)]
struct ScreenEntry {
    strength: i64,
    pref: Preference,
    deferred: bool,
    regs: u64,
}

/// How one preference screen ended, for the scorecard.
#[derive(Clone, Copy)]
enum ScreenOutcome {
    /// Narrowed the candidate set with the partner already placed.
    Honored,
    /// Narrowed the set to keep an unallocated partner feasible (2.2).
    Deferred,
    /// Abandoned: the filter would have emptied the set (or added no
    /// gain).
    Skipped,
}

/// The registers of `mask` in index order.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let r = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            r
        })
    })
}

impl Selector<'_> {
    fn run(mut self, tracer: &mut dyn Tracer, scratch: &mut SelectScratch) -> SelectResult {
        let mut pred_remaining = scratch.counts.take();
        pred_remaining
            .extend((0..self.nodes.num_nodes()).map(|i| self.cpg.preds(NodeId::new(i)).len()));
        let cpg = self.cpg;
        let mut total = 0;
        for n in cpg.nodes() {
            total += 1;
            if cpg.preds(n).is_empty() {
                self.enqueue(n);
            }
        }
        let mut done = 0;
        let mut frontier_max = 0;

        while self.live > 0 {
            // Step 3: the frontier node with the largest differential
            // (lowest node id on ties), skipping stale heap entries.
            let (n, differential) = loop {
                let (d, Reverse(id)) = self.heap.pop().expect("live frontier has a heap entry");
                let n = NodeId::new(id as usize);
                if self.in_queue[n.index()] && self.diff[n.index()] == d {
                    break (n, d);
                }
            };
            let frontier = self.live;
            frontier_max = frontier_max.max(frontier);
            self.in_queue[n.index()] = false;
            self.live -= 1;

            self.allocate(n, frontier, differential, tracer);
            done += 1;
            self.refresh_dirty();

            // Step 5: release successors.
            for &s in cpg.succs(n) {
                pred_remaining[s.index()] -= 1;
                if pred_remaining[s.index()] == 0 {
                    self.enqueue(s);
                }
            }
        }
        assert_eq!(done, total, "CPG must drain completely (acyclic)");
        self.metrics
            .observe_value(ValueHist::SelectFrontierMax, u64::from(frontier_max));

        let mut spilled = scratch.nodes.take();
        spilled.extend(
            (0..self.nodes.num_nodes())
                .map(NodeId::new)
                .filter(|n| self.spilled[n.index()]),
        );
        // Park every internal buffer back in the scratch before returning:
        // the next select call reuses all of them.
        scratch.counts.put(pred_remaining);
        scratch.rev_pref.put(self.rev_pref);
        scratch.bools.put(self.spilled);
        scratch.bools.put(self.in_queue);
        scratch.bools.put(self.dirty_flag);
        scratch.diffs.put(self.diff);
        scratch.masks.put(self.occ);
        scratch.heap = self.heap;
        scratch.dirty = self.dirty;
        scratch.screens = self.screen_buf;
        scratch.metrics = self.metrics;
        SelectResult {
            assignment: self.assignment,
            spilled,
        }
    }

    /// Puts a released node on the frontier with its current differential.
    fn enqueue(&mut self, n: NodeId) {
        let d = self.differential(n);
        self.diff[n.index()] = d;
        self.in_queue[n.index()] = true;
        self.live += 1;
        self.heap.push((d, Reverse(n.index() as u32)));
    }

    /// Queues frontier node `x` for recomputation (once per assignment).
    fn mark_dirty(&mut self, x: NodeId) {
        if self.in_queue[x.index()] && !self.dirty_flag[x.index()] {
            self.dirty_flag[x.index()] = true;
            self.dirty.push(x);
        }
    }

    /// Recomputes the differentials the last assignment may have changed,
    /// pushing a fresh heap entry for each one that moved.
    fn refresh_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            let x = self.dirty[i];
            self.dirty_flag[x.index()] = false;
            let d = self.differential(x);
            if d != self.diff[x.index()] {
                self.diff[x.index()] = d;
                self.heap.push((d, Reverse(x.index() as u32)));
            }
        }
        self.dirty.clear();
    }

    /// Records `n`'s assignment to `reg`: sets `reg` in every interference
    /// neighbour's occupancy mask, marking the frontier neighbours whose
    /// mask actually changed, and marks the frontier holders of
    /// preferences targeting `n` (those preferences just became
    /// honorable). Spills change no assignment, so they invalidate nothing.
    fn assign(&mut self, n: NodeId, reg: PhysReg) {
        self.assignment[n.index()] = Some(reg);
        let bit = 1u64 << reg.index();
        let ifg = self.ifg;
        for &x in ifg.neighbors_slice(n) {
            let m = &mut self.occ[x.index()];
            if *m & bit == 0 {
                *m |= bit;
                self.mark_dirty(x);
            }
        }
        for i in 0..self.rev_pref[n.index()].len() {
            let holder = self.rev_pref[n.index()][i];
            self.mark_dirty(holder);
        }
    }

    /// The registers that honor `pref` under the current assignments
    /// (before intersecting with the available set); empty for a deferred
    /// preference (unallocated partner, 2.2) and for `Prefers` on a node.
    fn admit_mask(&self, pref: &Preference) -> u64 {
        match pref.target {
            PrefTarget::Volatile => self.volatile,
            PrefTarget::NonVolatile => self.file & !self.volatile,
            PrefTarget::Set(mask) => mask,
            PrefTarget::Node(m) => {
                // Resolve through coalesced representatives (pre-
                // coalescing merges nodes before selection).
                let Some(partner) = self.assignment[self.ifg.rep(m).index()] else {
                    return 0;
                };
                let p = partner.index();
                match pref.kind {
                    PrefKind::Coalesce => 1 << p,
                    PrefKind::SequentialPlus => self.pair_second[p],
                    PrefKind::SequentialMinus => self.pair_first[p],
                    PrefKind::Prefers => 0,
                }
            }
        }
    }

    /// The best strength of `pref` over the registers of `regs`: its
    /// volatile and non-volatile strengths, for the classes present.
    fn best_over(&self, pref: &Preference, regs: u64) -> Option<i64> {
        let vol = (regs & self.volatile != 0).then_some(pref.strength_vol);
        let nonvol = (regs & !self.volatile != 0).then_some(pref.strength_nonvol);
        vol.max(nonvol)
    }

    /// Step 3's metric: the spread between the best and worst per-register
    /// preference satisfaction over the currently available registers. A
    /// register no preference admits scores 0; with no register available
    /// at all the node will spill regardless of order.
    fn differential(&mut self, n: NodeId) -> i64 {
        self.metrics.bump(Counter::SelectDiffRecomputes);
        let avail = self.file & !self.occ[n.index()];
        if avail == 0 {
            return i64::MIN + 1;
        }
        let mut row = [i64::MIN; MAX_REGS];
        let mut admitted = 0u64;
        for pref in self.rpg.prefs(n) {
            let admit = self.admit_mask(pref) & avail;
            admitted |= admit;
            for r in bits(admit & self.volatile) {
                row[r] = row[r].max(pref.strength_vol);
            }
            for r in bits(admit & !self.volatile) {
                row[r] = row[r].max(pref.strength_nonvol);
            }
        }
        let (mut best, mut worst) = if avail & !admitted != 0 {
            (0, 0)
        } else {
            (i64::MIN, i64::MAX)
        };
        for r in bits(admitted) {
            best = best.max(row[r]);
            worst = worst.min(row[r]);
        }
        best - worst
    }

    /// Steps 2.1–2.2: screens the preferences of `n` into `out` — first
    /// the honorable ones (a non-empty honoring set within `avail`), then
    /// the deferred ones (partner not yet allocated), each in preference
    /// order so the later stable sort breaks strength ties by that order.
    fn collect_screens(&self, n: NodeId, avail: u64, out: &mut Vec<ScreenEntry>) {
        for &pref in self.rpg.prefs(n) {
            let regs = self.admit_mask(&pref) & avail;
            if let Some(strength) = self.best_over(&pref, regs) {
                out.push(ScreenEntry {
                    strength,
                    pref,
                    deferred: false,
                    regs,
                });
            }
        }
        for &pref in self.rpg.prefs(n) {
            if let PrefTarget::Node(m) = pref.target {
                let m = self.ifg.rep(m);
                let pending = self.assignment[m.index()].is_none()
                    && !self.spilled[m.index()]
                    && !self.nodes.is_precolored(m)
                    && self.cpg.contains(m);
                if pending && !matches!(pref.kind, PrefKind::Prefers) {
                    out.push(ScreenEntry {
                        strength: pref.best_strength(),
                        pref,
                        deferred: true,
                        regs: 0,
                    });
                }
            }
        }
    }

    /// The trace label for a preference kind.
    fn kind_str(kind: PrefKind) -> &'static str {
        match kind {
            PrefKind::Coalesce => "coalesce",
            PrefKind::SequentialPlus => "seq+",
            PrefKind::SequentialMinus => "seq-",
            PrefKind::Prefers => "prefers",
        }
    }

    /// The scorecard counter for one screening outcome: the (kind,
    /// honored/deferred/skipped) cell of the Figure 5(a) table.
    fn screen_counter(kind: PrefKind, outcome: ScreenOutcome) -> Counter {
        use ScreenOutcome::*;
        match (kind, outcome) {
            (PrefKind::Coalesce, Honored) => Counter::PrefCoalesceHonored,
            (PrefKind::Coalesce, Deferred) => Counter::PrefCoalesceDeferred,
            (PrefKind::Coalesce, Skipped) => Counter::PrefCoalesceSkipped,
            (PrefKind::SequentialPlus, Honored) => Counter::PrefSeqPlusHonored,
            (PrefKind::SequentialPlus, Deferred) => Counter::PrefSeqPlusDeferred,
            (PrefKind::SequentialPlus, Skipped) => Counter::PrefSeqPlusSkipped,
            (PrefKind::SequentialMinus, Honored) => Counter::PrefSeqMinusHonored,
            (PrefKind::SequentialMinus, Deferred) => Counter::PrefSeqMinusDeferred,
            (PrefKind::SequentialMinus, Skipped) => Counter::PrefSeqMinusSkipped,
            (PrefKind::Prefers, Honored) => Counter::PrefPrefersHonored,
            (PrefKind::Prefers, Deferred) => Counter::PrefPrefersDeferred,
            (PrefKind::Prefers, Skipped) => Counter::PrefPrefersSkipped,
        }
    }

    /// The trace label for a preference target.
    fn target_str(&self, target: PrefTarget) -> String {
        match target {
            PrefTarget::Node(m) if self.nodes.is_precolored(m) => {
                self.nodes.phys_reg(m).to_string()
            }
            PrefTarget::Node(m) => format!("node:{}", m.index()),
            PrefTarget::Volatile => "volatile".to_string(),
            PrefTarget::NonVolatile => "non-volatile".to_string(),
            PrefTarget::Set(mask) => format!("set:{mask:#x}"),
        }
    }

    /// The spill cost reported in trace verdicts.
    fn cost_of(&self, n: NodeId) -> u64 {
        self.spill_costs.get(n.index()).copied().unwrap_or(0)
    }

    /// Emits the decision event for `n` (only called when tracing).
    #[allow(clippy::too_many_arguments)]
    fn emit_decision(
        &self,
        tracer: &mut dyn Tracer,
        n: NodeId,
        frontier: u32,
        differential: i64,
        available: u32,
        considered: Vec<Considered>,
        verdict: Verdict,
    ) {
        tracer.record(&Event::Decision(Decision {
            round: self.round,
            class: self.nodes.class(),
            node: n.index() as u32,
            members: self
                .nodes
                .members(n)
                .iter()
                .map(|v| v.index() as u32)
                .collect(),
            frontier,
            differential,
            available,
            considered,
            verdict,
        }));
    }

    /// Steps 4.1–4.4 for the chosen node, on register masks: a warm
    /// untraced select never allocates here.
    fn allocate(&mut self, n: NodeId, frontier: u32, differential: i64, tracer: &mut dyn Tracer) {
        let trace = tracer.enabled();
        let avail = self.file & !self.occ[n.index()];
        let navail = avail.count_ones();
        if avail == 0 {
            self.spill(n);
            self.metrics.bump(Counter::SelectSpilledNoRegister);
            if trace {
                let verdict = Verdict::Spilled {
                    reason: SpillReason::NoRegister,
                    cost: self.cost_of(n),
                };
                self.emit_decision(tracer, n, frontier, differential, 0, Vec::new(), verdict);
            }
            return;
        }
        let mut screens = std::mem::take(&mut self.screen_buf);
        debug_assert!(screens.is_empty());
        self.collect_screens(n, avail, &mut screens);
        // §5.4 active spilling: the strongest preference is for memory.
        if self.config.active_spill && !self.no_spill[n.index()] {
            let strongest = screens
                .iter()
                .filter(|e| !e.deferred)
                .map(|e| e.strength)
                .max();
            if strongest.is_some_and(|s| s < 0) {
                self.spill(n);
                self.metrics.bump(Counter::SelectSpilledPreferMemory);
                if trace {
                    let considered = screens
                        .iter()
                        .filter(|e| !e.deferred)
                        .map(|e| Considered {
                            kind: Self::kind_str(e.pref.kind),
                            target: self.target_str(e.pref.target),
                            strength: e.strength,
                            deferred: false,
                            narrowed: false,
                            survivors: navail,
                        })
                        .collect();
                    let verdict = Verdict::Spilled {
                        reason: SpillReason::PreferMemory,
                        cost: self.cost_of(n),
                    };
                    self.emit_decision(
                        tracer,
                        n,
                        frontier,
                        differential,
                        navail,
                        considered,
                        verdict,
                    );
                }
                screens.clear();
                self.screen_buf = screens;
                return;
            }
        }

        // Steps 4.2–4.3: screen strongest-to-weakest over *all* of n's
        // preferences, honorable and deferred alike. An honorable
        // preference narrows the candidate set when it can still be
        // honored within it; a deferred (unallocated-partner) preference
        // narrows to the registers that leave the partner able to honor
        // it later. Interleaving by strength matters: a strong deferred
        // pairing must be able to veto a weaker coalesce before the
        // coalesce pins the candidate set (Figure 5(a)).
        screens.sort_by_key(|e| Reverse(e.strength));
        let mut considered: Vec<Considered> = Vec::new();
        let mut cand = avail;
        for e in screens.drain(..) {
            let narrowed = if !e.deferred {
                let narrowed = cand & e.regs;
                match self.best_over(&e.pref, narrowed) {
                    Some(gain) if gain > 0 => narrowed,
                    _ => 0,
                }
            } else if e.strength > 0 {
                self.partner_feasible(&e.pref, cand)
            } else {
                0
            };
            if trace {
                considered.push(Considered {
                    kind: Self::kind_str(e.pref.kind),
                    target: self.target_str(e.pref.target),
                    strength: e.strength,
                    deferred: e.deferred,
                    narrowed: narrowed != 0,
                    survivors: if narrowed != 0 { narrowed } else { cand }.count_ones(),
                });
            }
            // A filter that would empty the set is skipped: the
            // preference is abandoned rather than hurting this node.
            if narrowed == 0 {
                self.metrics
                    .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Skipped));
                continue;
            }
            cand = narrowed;
            if e.deferred {
                self.metrics
                    .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Deferred));
            } else {
                self.metrics
                    .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Honored));
                self.metrics
                    .observe_value(ValueHist::PrefStrengthHonored, e.strength.max(0) as u64);
            }
        }
        self.screen_buf = screens;

        // Step 4.4: pick the lowest candidate (the lowest non-volatile one
        // first under `nonvolatile_first`).
        let nonvol = cand & !self.volatile;
        let pick = if self.config.nonvolatile_first && nonvol != 0 {
            nonvol
        } else {
            cand
        };
        let reg = PhysReg::new(self.nodes.class(), pick.trailing_zeros() as u8);
        self.assign(n, reg);
        self.metrics.bump(Counter::SelectAssigned);
        if trace {
            self.emit_decision(
                tracer,
                n,
                frontier,
                differential,
                navail,
                considered,
                Verdict::Assigned { reg },
            );
        }
    }

    /// The registers of `cand` that do not prevent the deferred preference
    /// `pref` from being honored later:
    ///
    /// * a *coalesce* partner must later be able to take the same register
    ///   we pick, so registers already blocked by the partner's allocated
    ///   neighbours are removed;
    /// * a *sequential* partner must later find a free register other than
    ///   ours that pairs with ours under the target rule.
    fn partner_feasible(&self, pref: &Preference, cand: u64) -> u64 {
        let PrefTarget::Node(m) = pref.target else {
            return cand;
        };
        let blocked = self.occ[self.ifg.rep(m).index()];
        let free = self.file & !blocked;
        let pairs = match pref.kind {
            PrefKind::Coalesce => return cand & free,
            PrefKind::Prefers => return cand,
            PrefKind::SequentialPlus => &self.pair_first,
            PrefKind::SequentialMinus => &self.pair_second,
        };
        bits(cand)
            .filter(|&r| pairs[r] & free & !(1 << r) != 0)
            .fold(0, |m, r| m | 1 << r)
    }

    fn spill(&mut self, n: NodeId) {
        assert!(
            !self.no_spill[n.index()],
            "select: forced to spill unspillable temporary {n}"
        );
        self.spilled[n.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::{simplify, SimplifyMode};
    use pdgc_ir::RegClass;
    use pdgc_obs::NoopTracer;
    use pdgc_target::TargetDesc;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Universe with 3 precolored + the given interference edges among
    /// live ranges 3..3+m.
    fn setup(m: usize, edges: &[(usize, usize)]) -> (InterferenceGraph, NodeMap) {
        use pdgc_ir::FunctionBuilder;
        // NodeMap needs a function; build one with m int vregs all used.
        let mut b = FunctionBuilder::new("t", vec![], None);
        let base = b.iconst(0);
        let mut vs = vec![];
        for i in 0..m {
            let v = b.load(base, (i * 16) as i32 + 128);
            vs.push(v);
        }
        // keep them all live to the end via stores
        for &v in &vs {
            b.store(v, base, 0);
        }
        b.ret(None);
        let f = b.finish();
        let target = TargetDesc::figure7();
        let pinned = vec![None; f.num_vregs()];
        let nm = NodeMap::build(&f, &target, RegClass::Int, &pinned);
        let mut g = InterferenceGraph::new(nm.num_nodes(), nm.num_phys());
        for &(a, b2) in edges {
            g.add_edge(n(a), n(b2));
        }
        (g, nm)
    }

    fn run_select(
        g: &mut InterferenceGraph,
        nm: &NodeMap,
        rpg: &Rpg,
        config: SelectConfig,
    ) -> SelectResult {
        let target = TargetDesc::figure7();
        let costs = vec![10u64; nm.num_nodes()];
        let sr = simplify(g, 3, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        let cpg = Cpg::build(g, &sr.stack, &sr.optimistic, 3);
        let no_spill = vec![false; nm.num_nodes()];
        select_traced_in(
            g,
            nm,
            rpg,
            &cpg,
            &target,
            &no_spill,
            &[],
            config,
            1,
            &mut NoopTracer,
            &mut SelectScratch::default(),
        )
    }

    #[test]
    fn triangle_gets_three_distinct_registers() {
        // Nodes 3,4,5 mutually interfere (a triangle), node 6 is free.
        let (mut g, nm) = setup(3, &[(3, 4), (3, 5), (4, 5)]);
        let rpg = Rpg::new(nm.num_nodes());
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert!(r.spilled.is_empty());
        let mut regs: Vec<_> = (3..6).map(|i| r.assignment[i].unwrap()).collect();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), 3);
    }

    #[test]
    fn k4_with_three_colors_spills_exactly_one() {
        let (mut g, nm) = setup(3, &[(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]);
        let rpg = Rpg::new(nm.num_nodes());
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert_eq!(r.spilled.len() + (3..7).filter(|&i| r.assignment[i].is_some()).count(), 4);
        // All allocated nodes have distinct registers (they all interfere).
        let mut regs: Vec<_> = (3..7).filter_map(|i| r.assignment[i]).collect();
        let before = regs.len();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), before);
    }

    #[test]
    fn coalesce_preference_matches_partner_register() {
        // Two non-interfering nodes 4 and 5, copy-related; 4 also
        // interferes with nothing else. Force processing order via CPG and
        // check 5 lands on 4's register.
        let (mut g, nm) = setup(2, &[(3, 4), (3, 5)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        for (a, b) in [(4, 5), (5, 4)] {
            rpg.add(
                n(a),
                Preference {
                    kind: PrefKind::Coalesce,
                    target: PrefTarget::Node(n(b)),
                    strength_vol: 40,
                    strength_nonvol: 38,
                },
            );
        }
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert!(r.spilled.is_empty());
        assert_eq!(r.assignment[4], r.assignment[5]);
    }

    #[test]
    fn dedicated_register_preference_honored() {
        // Node 4 copy-related to precolored r2 (node 2).
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::Coalesce,
                target: PrefTarget::Node(n(2)),
                strength_vol: 10,
                strength_nonvol: 10,
            },
        );
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert_eq!(r.assignment[4], Some(pdgc_target::PhysReg::int(2)));
    }

    #[test]
    fn prefers_nonvolatile_honored() {
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::Prefers,
                target: PrefTarget::NonVolatile,
                strength_vol: i64::MIN,
                strength_nonvol: 25,
            },
        );
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::Prefers,
                target: PrefTarget::Volatile,
                strength_vol: 5,
                strength_nonvol: i64::MIN,
            },
        );
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        // figure7 target: r2 is the only non-volatile register.
        assert_eq!(r.assignment[4], Some(pdgc_target::PhysReg::int(2)));
    }

    #[test]
    fn active_spill_on_memory_preference() {
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        for (t, sv, snv) in [
            (PrefTarget::Volatile, -5i64, i64::MIN),
            (PrefTarget::NonVolatile, i64::MIN, -7),
        ] {
            rpg.add(
                n(4),
                Preference {
                    kind: PrefKind::Prefers,
                    target: t,
                    strength_vol: sv,
                    strength_nonvol: snv,
                },
            );
        }
        let cfg = SelectConfig {
            active_spill: true,
            nonvolatile_first: false,
        };
        let r = run_select(&mut g, &nm, &rpg, cfg);
        assert_eq!(r.spilled, vec![n(4)]);
        // With active spilling off the node gets a register.
        let (mut g2, nm2) = setup(1, &[(3, 4)]);
        let cfg = SelectConfig {
            active_spill: false,
            nonvolatile_first: false,
        };
        let r2 = run_select(&mut g2, &nm2, &rpg, cfg);
        assert!(r2.spilled.is_empty());
    }

    #[test]
    fn nonvolatile_first_fallback() {
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let rpg = Rpg::new(nm.num_nodes());
        let cfg = SelectConfig {
            active_spill: false,
            nonvolatile_first: true,
        };
        let r = run_select(&mut g, &nm, &rpg, cfg);
        // The first node processed (lowest id on ties: the base at node 3)
        // takes the sole non-volatile register r2; its neighbor falls back
        // to the first volatile register.
        assert_eq!(r.assignment[3], Some(pdgc_target::PhysReg::int(2)));
        assert_eq!(r.assignment[4], Some(pdgc_target::PhysReg::int(0)));
    }

    #[test]
    fn sequential_pairing_after_partner_allocated() {
        // 4 and 5 interfere (paired values are simultaneously live).
        let (mut g, nm) = setup(2, &[(3, 4), (3, 5), (4, 5)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::SequentialPlus,
                target: PrefTarget::Node(n(5)),
                strength_vol: 50,
                strength_nonvol: 48,
            },
        );
        rpg.add(
            n(5),
            Preference {
                kind: PrefKind::SequentialMinus,
                target: PrefTarget::Node(n(4)),
                strength_vol: 50,
                strength_nonvol: 48,
            },
        );
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        let (a, b) = (r.assignment[4].unwrap(), r.assignment[5].unwrap());
        // figure7 uses the different-parity rule.
        assert!(TargetDesc::figure7().pair_allows(a, b));
    }
}
