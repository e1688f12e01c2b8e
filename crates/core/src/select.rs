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

use crate::cpg::Cpg;
use crate::ifg::InterferenceGraph;
use crate::node::{NodeId, NodeMap};
use crate::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc_arena::{NestedPool, VecPool};
use pdgc_obs::{
    Considered, Counter, Decision, Event, MetricsRegistry, SpillReason, Tracer, ValueHist, Verdict,
};
use pdgc_target::{PhysReg, TargetDesc};

/// Resettable scratch for [`select_traced_in`]: the reverse-preference
/// index, the differential caches, and the per-select working vectors.
#[derive(Debug, Default)]
pub struct SelectScratch {
    rev_pref: NestedPool<NodeId>,
    assignments: VecPool<Option<PhysReg>>,
    bools: VecPool<bool>,
    diffs: VecPool<i64>,
    counts: VecPool<usize>,
    nodes: VecPool<NodeId>,
    /// Pool for candidate-register sets: the available set, per-preference
    /// honoring sets, narrowed candidate sets, and partner-blocked sets.
    phys: VecPool<PhysReg>,
    /// Reused per-node screening list (honorable + deferred preferences).
    screens: Vec<ScreenEntry>,
    /// Register-occupancy buffer threaded into the selector's
    /// differential scan (the `select.rs` take/restore audit target).
    used: Vec<bool>,
    /// Always-on screening-outcome counters (honored/deferred/skipped by
    /// preference kind, spill reasons, strength distribution) plus the
    /// strategy's per-class phase latencies. The pipeline drains this
    /// into the worker's `PhaseScratch` registry after every class.
    pub metrics: MetricsRegistry,
}

impl SelectScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the pooled differential-occupancy buffer (diagnostic;
    /// the take/restore regression test asserts it survives the
    /// no-register-available early return).
    pub fn used_capacity(&self) -> usize {
        self.used.capacity()
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
/// differential caches, and occupancy buffers — from pooled scratch.
/// Recycle the result with [`SelectResult::recycle`].
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
    // Reverse preference index: rev_pref[m] holds the nodes with a
    // preference targeting (the representative of) m. Assigning m makes
    // exactly those nodes' differentials stale.
    let mut rev_pref = scratch.rev_pref.take(nodes.num_nodes());
    for i in 0..nodes.num_nodes() {
        let holder = NodeId::new(i);
        for pref in rpg.prefs(holder) {
            if let PrefTarget::Node(m) = pref.target {
                rev_pref[ifg.rep(m).index()].push(holder);
            }
        }
    }
    let mut assignment = scratch.assignments.take();
    assignment.extend((0..nodes.num_nodes()).map(|i| {
        let n = NodeId::new(i);
        nodes.is_precolored(n).then(|| nodes.phys_reg(n))
    }));
    Selector {
        ifg,
        nodes,
        rpg,
        cpg,
        target,
        no_spill,
        spill_costs,
        config,
        round,
        assignment,
        spilled: scratch.bools.take_filled(nodes.num_nodes(), false),
        processed: scratch.bools.take_filled(nodes.num_nodes(), false),
        rev_pref,
        diff_cache: scratch.diffs.take_filled(nodes.num_nodes(), 0),
        diff_dirty: scratch.bools.take_filled(nodes.num_nodes(), true),
        used_scratch: std::mem::take(&mut scratch.used),
        phys: std::mem::take(&mut scratch.phys),
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
    target: &'a TargetDesc,
    no_spill: &'a [bool],
    spill_costs: &'a [u64],
    config: SelectConfig,
    round: u32,
    assignment: Vec<Option<PhysReg>>,
    spilled: Vec<bool>,
    processed: Vec<bool>,
    /// `rev_pref[m]`: nodes holding a preference that targets `m`'s
    /// representative.
    rev_pref: Vec<Vec<NodeId>>,
    /// Cached step-3 strength differential per node; valid while the
    /// matching `diff_dirty` bit is clear.
    diff_cache: Vec<i64>,
    diff_dirty: Vec<bool>,
    /// Reusable register-occupancy scratch for the differential scan,
    /// owned by the selector so the frontier loop never allocates.
    used_scratch: Vec<bool>,
    /// Pool for the per-node candidate-register vectors.
    phys: VecPool<PhysReg>,
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
    regs: Vec<PhysReg>,
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

impl Selector<'_> {
    fn run(mut self, tracer: &mut dyn Tracer, scratch: &mut SelectScratch) -> SelectResult {
        let mut pred_remaining = scratch.counts.take();
        pred_remaining.extend((0..self.nodes.num_nodes()).map(|i| self.cpg.preds(NodeId::new(i)).len()));
        let mut queue = scratch.nodes.take();
        queue.extend(self.cpg.initial_queue());
        let total: usize = self.cpg.nodes().count();
        let mut done = 0;

        while !queue.is_empty() {
            // Step 3: the frontier node with the largest differential
            // (lowest node id on ties). Differentials are cached and only
            // recomputed for nodes an assignment actually invalidated —
            // an interference neighbor or preference holder of the
            // assigned node — so a steady-state step touches the scratch
            // buffers of the few dirty frontier nodes instead of
            // re-deriving every frontier member from scratch.
            let mut best: Option<(usize, i64)> = None;
            for i in 0..queue.len() {
                let n = queue[i];
                let d = self.cached_differential(n);
                let better = match best {
                    None => true,
                    Some((bi, bd)) => d > bd || (d == bd && n.index() < queue[bi].index()),
                };
                if better {
                    best = Some((i, d));
                }
            }
            let (qi, differential) = best.expect("non-empty queue");
            let frontier = queue.len() as u32;
            let n = queue.swap_remove(qi);

            self.allocate(n, frontier, differential, tracer);
            self.processed[n.index()] = true;
            done += 1;

            // Step 5: release successors.
            for &s in self.cpg.succs(n) {
                pred_remaining[s.index()] -= 1;
                if pred_remaining[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(done, total, "CPG must drain completely (acyclic)");

        let mut spilled = scratch.nodes.take();
        spilled.extend(
            (0..self.nodes.num_nodes())
                .map(NodeId::new)
                .filter(|n| self.spilled[n.index()]),
        );
        // Park every internal buffer back in the scratch before returning:
        // the next select call reuses all of them.
        scratch.counts.put(pred_remaining);
        scratch.nodes.put(queue);
        scratch.rev_pref.put(self.rev_pref);
        scratch.bools.put(self.spilled);
        scratch.bools.put(self.processed);
        scratch.bools.put(self.diff_dirty);
        scratch.diffs.put(self.diff_cache);
        scratch.used = std::mem::take(&mut self.used_scratch);
        scratch.phys = std::mem::take(&mut self.phys);
        scratch.screens = std::mem::take(&mut self.screen_buf);
        scratch.metrics = std::mem::take(&mut self.metrics);
        SelectResult {
            assignment: self.assignment,
            spilled,
        }
    }

    /// Registers not used by already-allocated interference neighbors,
    /// written into `out` (occupancy via the reused differential buffer).
    fn collect_available(&mut self, n: NodeId, out: &mut Vec<PhysReg>) {
        let mut used = std::mem::take(&mut self.used_scratch);
        used.clear();
        used.resize(self.target.num_regs(self.nodes.class()), false);
        for &x in self.ifg.neighbors_slice(n) {
            if let Some(r) = self.assignment[x.index()] {
                used[r.index()] = true;
            }
        }
        out.extend(
            self.target
                .regs(self.nodes.class())
                .filter(|r| !used[r.index()]),
        );
        self.used_scratch = used;
    }

    /// Steps 2.1–2.2: screens the preferences of `n` into `out` — first
    /// the honorable ones (a non-empty honoring set within `avail`), then
    /// the deferred ones (partner not yet allocated), each in preference
    /// order so the later stable sort ties out exactly like the unpooled
    /// path did.
    fn collect_screens(&mut self, n: NodeId, avail: &[PhysReg], out: &mut Vec<ScreenEntry>) {
        let rpg = self.rpg;
        for &pref in rpg.prefs(n) {
            let mut regs = self.phys.take();
            match pref.target {
                PrefTarget::Volatile => {
                    regs.extend(avail.iter().copied().filter(|&r| self.target.is_volatile(r)));
                }
                PrefTarget::NonVolatile => {
                    regs.extend(avail.iter().copied().filter(|&r| !self.target.is_volatile(r)));
                }
                PrefTarget::Set(mask) => {
                    regs.extend(
                        avail
                            .iter()
                            .copied()
                            .filter(|&r| r.index() < 64 && (mask >> r.index()) & 1 == 1),
                    );
                }
                PrefTarget::Node(m) => {
                    // Resolve through coalesced representatives (pre-
                    // coalescing merges nodes before selection). An
                    // unallocated partner leaves the set empty: the
                    // preference is deferred (2.2), handled below.
                    let m = self.ifg.rep(m);
                    if let Some(partner) = self.assignment[m.index()] {
                        match pref.kind {
                            PrefKind::Coalesce => {
                                regs.extend(avail.iter().copied().filter(|&r| r == partner));
                            }
                            PrefKind::SequentialPlus => {
                                regs.extend(
                                    avail
                                        .iter()
                                        .copied()
                                        .filter(|&r| self.target.pair_allows(r, partner)),
                                );
                            }
                            PrefKind::SequentialMinus => {
                                regs.extend(
                                    avail
                                        .iter()
                                        .copied()
                                        .filter(|&r| self.target.pair_allows(partner, r)),
                                );
                            }
                            PrefKind::Prefers => {}
                        }
                    }
                }
            }
            if regs.is_empty() {
                self.phys.put(regs);
            } else {
                let strength = regs
                    .iter()
                    .map(|&r| pref.strength_with(r, self.target))
                    .max()
                    .unwrap_or(i64::MIN);
                out.push(ScreenEntry {
                    strength,
                    pref,
                    deferred: false,
                    regs,
                });
            }
        }
        for &pref in rpg.prefs(n) {
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
                        regs: Vec::new(),
                    });
                }
            }
        }
    }

    /// The cached step-3 differential of `n`, recomputed only when a prior
    /// assignment marked it stale.
    fn cached_differential(&mut self, n: NodeId) -> i64 {
        if self.diff_dirty[n.index()] {
            self.diff_cache[n.index()] = self.differential(n);
            self.diff_dirty[n.index()] = false;
        }
        self.diff_cache[n.index()]
    }

    /// Marks every node whose differential reads `n`'s assignment as
    /// stale: `n`'s interference neighbors (their available sets shrank)
    /// and the holders of preferences targeting `n` (those preferences
    /// just became honorable). Spills change no assignment, so they
    /// invalidate nothing.
    fn invalidate_after_assign(&mut self, n: NodeId) {
        for &x in self.ifg.neighbors_slice(n) {
            self.diff_dirty[x.index()] = true;
        }
        for i in 0..self.rev_pref[n.index()].len() {
            let holder = self.rev_pref[n.index()][i];
            self.diff_dirty[holder.index()] = true;
        }
    }

    /// The strength of honoring `pref` with register `r` under the current
    /// assignments, or `None` when `r` does not honor it (mirrors the
    /// per-register filters of [`honorable_prefs`](Self::honorable_prefs)).
    fn pref_strength_if_admits(&self, pref: &Preference, r: PhysReg) -> Option<i64> {
        let admits = match pref.target {
            PrefTarget::Volatile => self.target.is_volatile(r),
            PrefTarget::NonVolatile => !self.target.is_volatile(r),
            PrefTarget::Set(mask) => r.index() < 64 && (mask >> r.index()) & 1 == 1,
            PrefTarget::Node(m) => {
                let m = self.ifg.rep(m);
                let partner = self.assignment[m.index()]?; // deferred (2.2)
                match pref.kind {
                    PrefKind::Coalesce => r == partner,
                    PrefKind::SequentialPlus => self.target.pair_allows(r, partner),
                    PrefKind::SequentialMinus => self.target.pair_allows(partner, r),
                    PrefKind::Prefers => false,
                }
            }
        };
        admits.then(|| pref.strength_with(r, self.target))
    }

    /// Step 3's metric: the spread between the best and worst per-register
    /// preference satisfaction over the currently available registers.
    /// Allocation-free: occupancy lives in the selector-owned scratch
    /// buffer and preferences are evaluated per register instead of
    /// materializing honoring register sets.
    fn differential(&mut self, n: NodeId) -> i64 {
        let mut used = std::mem::take(&mut self.used_scratch);
        used.clear();
        used.resize(self.target.num_regs(self.nodes.class()), false);
        for &x in self.ifg.neighbors_slice(n) {
            if let Some(r) = self.assignment[x.index()] {
                used[r.index()] = true;
            }
        }
        let mut best = i64::MIN;
        let mut worst = i64::MAX;
        let mut any_available = false;
        for r in self.target.regs(self.nodes.class()) {
            if used[r.index()] {
                continue;
            }
            any_available = true;
            let s = self
                .rpg
                .prefs(n)
                .iter()
                .filter_map(|pref| self.pref_strength_if_admits(pref, r))
                .max()
                .unwrap_or(0);
            best = best.max(s);
            worst = worst.min(s);
        }
        self.used_scratch = used;
        if !any_available {
            return i64::MIN + 1; // will spill regardless of order
        }
        best - worst
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

    /// Steps 4.1–4.4 for the chosen node. Every candidate-register vector
    /// is drawn from the selector's pool and returned to it, so a warm
    /// untraced select never allocates here.
    fn allocate(&mut self, n: NodeId, frontier: u32, differential: i64, tracer: &mut dyn Tracer) {
        let trace = tracer.enabled();
        let mut avail = self.phys.take();
        self.collect_available(n, &mut avail);
        let navail = avail.len() as u32;
        if avail.is_empty() {
            self.phys.put(avail);
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
        self.collect_screens(n, &avail, &mut screens);
        // §5.4 active spilling: the strongest preference is for memory.
        if self.config.active_spill && !self.no_spill[n.index()] {
            let strongest = screens
                .iter()
                .filter(|e| !e.deferred)
                .map(|e| e.strength)
                .max();
            if let Some(s) = strongest {
                if s < 0 {
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
                    self.phys.put(avail);
                    self.recycle_screens(screens);
                    return;
                }
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
        screens.sort_by_key(|e| std::cmp::Reverse(e.strength));
        let mut considered: Vec<Considered> = Vec::new();
        let mut cand = avail;
        for mut e in screens.drain(..) {
            let mut entry = if trace {
                Some(Considered {
                    kind: Self::kind_str(e.pref.kind),
                    target: self.target_str(e.pref.target),
                    strength: e.strength,
                    deferred: e.deferred,
                    narrowed: false,
                    survivors: cand.len() as u32,
                })
            } else {
                None
            };
            let regs = std::mem::take(&mut e.regs);
            let mut narrowed = self.phys.take();
            if !e.deferred {
                narrowed.extend(cand.iter().copied().filter(|r| regs.contains(r)));
                let gain = narrowed
                    .iter()
                    .map(|&r| e.pref.strength_with(r, self.target))
                    .max()
                    .unwrap_or(0);
                if gain <= 0 {
                    narrowed.clear();
                }
            } else if e.strength > 0 {
                self.partner_feasible_into(&e.pref, &cand, &mut narrowed);
            }
            // A filter that would empty the set is skipped: the
            // preference is abandoned rather than hurting this node.
            if narrowed.is_empty() {
                self.phys.put(narrowed);
                self.metrics
                    .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Skipped));
            } else {
                if let Some(en) = &mut entry {
                    en.narrowed = true;
                    en.survivors = narrowed.len() as u32;
                }
                self.phys.put(std::mem::replace(&mut cand, narrowed));
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
            if regs.capacity() > 0 {
                self.phys.put(regs);
            }
            considered.extend(entry);
        }
        self.screen_buf = screens;

        // Step 4.4: pick.
        let reg = if self.config.nonvolatile_first {
            cand.iter()
                .copied()
                .find(|&r| !self.target.is_volatile(r))
                .unwrap_or(cand[0])
        } else {
            cand[0]
        };
        self.phys.put(cand);
        self.assignment[n.index()] = Some(reg);
        self.metrics.bump(Counter::SelectAssigned);
        self.invalidate_after_assign(n);
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

    /// Returns a drained-or-not screening list's vectors to the pool and
    /// parks the list itself for the next node.
    fn recycle_screens(&mut self, mut screens: Vec<ScreenEntry>) {
        for e in screens.drain(..) {
            if e.regs.capacity() > 0 {
                self.phys.put(e.regs);
            }
        }
        self.screen_buf = screens;
    }

    /// Appends to `out` the registers of `cand` that do not prevent the
    /// deferred preference `pref` from being honored later:
    ///
    /// * a *coalesce* partner must later be able to take the same register
    ///   we pick, so registers already blocked by the partner's allocated
    ///   neighbors are removed;
    /// * a *sequential* partner must later find a register that pairs with
    ///   ours under the target rule.
    fn partner_feasible_into(&mut self, pref: &Preference, cand: &[PhysReg], out: &mut Vec<PhysReg>) {
        let PrefTarget::Node(m) = pref.target else {
            out.extend_from_slice(cand);
            return;
        };
        let m = self.ifg.rep(m);
        let mut partner_blocked = self.phys.take();
        partner_blocked.extend(
            self.ifg
                .neighbors_slice(m)
                .iter()
                .filter_map(|&x| self.assignment[x.index()]),
        );
        out.extend(cand.iter().copied().filter(|&r| match pref.kind {
            PrefKind::Coalesce => !partner_blocked.contains(&r),
            PrefKind::SequentialPlus | PrefKind::SequentialMinus => {
                self.target.regs(self.nodes.class()).any(|s| {
                    s != r
                        && !partner_blocked.contains(&s)
                        && match pref.kind {
                            PrefKind::SequentialPlus => self.target.pair_allows(r, s),
                            _ => self.target.pair_allows(s, r),
                        }
                })
            }
            PrefKind::Prefers => true,
        }));
        self.phys.put(partner_blocked);
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
    fn differential_early_return_keeps_occupancy_buffer() {
        // K4 on three registers forces the no-register-available early
        // return inside the differential scan. The take/restore pair in
        // `differential` must put the occupancy buffer back before that
        // return — if a refactor drops it, the scratch comes back with
        // zero capacity and steady-state reuse silently degrades to
        // per-call allocation.
        let (mut g, nm) = setup(3, &[(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]);
        let rpg = Rpg::new(nm.num_nodes());
        let target = TargetDesc::figure7();
        let costs = vec![10u64; nm.num_nodes()];
        let sr = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        let cpg = Cpg::build(&g, &sr.stack, &sr.optimistic, 3);
        let no_spill = vec![false; nm.num_nodes()];
        let mut scratch = SelectScratch::new();
        let r1 = select_traced_in(
            &g,
            &nm,
            &rpg,
            &cpg,
            &target,
            &no_spill,
            &[],
            SelectConfig::default(),
            1,
            &mut NoopTracer,
            &mut scratch,
        );
        assert!(!r1.spilled.is_empty(), "K4 on 3 regs must spill");
        assert!(
            scratch.used_capacity() > 0,
            "differential dropped its occupancy buffer on the early return"
        );
        // Reuse: a second run from the same scratch is bit-identical.
        let r2 = select_traced_in(
            &g,
            &nm,
            &rpg,
            &cpg,
            &target,
            &no_spill,
            &[],
            SelectConfig::default(),
            1,
            &mut NoopTracer,
            &mut scratch,
        );
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.spilled, r2.spilled);
        r1.recycle(&mut scratch);
        r2.recycle(&mut scratch);
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
