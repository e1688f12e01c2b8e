//! Control-flow graph utilities: predecessor/successor maps, orders, and
//! linear runs.

use crate::LivenessScratch;
use pdgc_ir::{Block, Function};

/// Precomputed CFG structure for a function.
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<Block>>,
    preds: Vec<Vec<Block>>,
    rpo: Vec<Block>,
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Computes successors, predecessors, and a reverse postorder from the
    /// entry block.
    ///
    /// Blocks unreachable from the entry are excluded from the reverse
    /// postorder (their `rpo_number` is `usize::MAX`) but still appear in
    /// the predecessor/successor maps.
    pub fn compute(func: &Function) -> Self {
        let n = func.num_blocks();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in func.block_ids() {
            for s in func.block(b).successors() {
                succs[b.index()].push(s);
                preds[s.index()].push(b);
            }
        }
        // Iterative postorder DFS.
        let mut post: Vec<Block> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(Block, usize)> = vec![(Block::ENTRY, 0)];
        visited[Block::ENTRY.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let s = succs[b.index()][*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in post.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        Cfg {
            succs,
            preds,
            rpo: post,
            rpo_index,
        }
    }

    /// Successors of `b`.
    pub fn succs(&self, b: Block) -> &[Block] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: Block) -> &[Block] {
        &self.preds[b.index()]
    }

    /// Blocks in reverse postorder (reachable blocks only).
    pub fn reverse_postorder(&self) -> &[Block] {
        &self.rpo
    }

    /// The reverse-postorder number of `b`, or `usize::MAX` if unreachable.
    pub fn rpo_number(&self, b: Block) -> usize {
        self.rpo_index[b.index()]
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// Number of blocks in the underlying function.
    pub fn num_blocks(&self) -> usize {
        self.succs.len()
    }
}

/// The linear runs of a CFG: chains of blocks joined by edges that are
/// both the source's only exit and the target's only entry.
///
/// Block `b` has run predecessor `p` iff `b` is reachable and is not the
/// entry, `p != b`, `p` is `b`'s only distinct reachable predecessor, and
/// `b` is `p`'s only distinct successor. Control entering `b` has then
/// just left `p` by its one exit, on any CFG, so a value `p` ends with is
/// still there when `b` starts.
#[derive(Clone, Debug)]
pub struct RunMap {
    pred: Vec<Option<Block>>,
}

impl RunMap {
    /// Builds the run map with throwaway scratch.
    pub fn compute(cfg: &Cfg) -> Self {
        Self::compute_in(cfg, &mut LivenessScratch::default())
    }

    /// Builds the run map, drawing its storage from `scratch`; return it
    /// with [`RunMap::recycle`].
    pub fn compute_in(cfg: &Cfg, scratch: &mut LivenessScratch) -> Self {
        let mut pred = scratch.runs.take_filled(cfg.num_blocks(), None);
        for b in (0..cfg.num_blocks()).map(Block::new) {
            if b == Block::ENTRY || !cfg.is_reachable(b) {
                continue;
            }
            let mut ps = cfg
                .preds(b)
                .iter()
                .copied()
                .filter(|&p| cfg.is_reachable(p));
            if let Some(p) = ps.next() {
                if p != b && ps.all(|q| q == p) && cfg.succs(p).iter().all(|&s| s == b) {
                    pred[b.index()] = Some(p);
                }
            }
        }
        RunMap { pred }
    }

    /// Returns the map's storage to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut LivenessScratch) {
        scratch.runs.put(self.pred);
    }

    /// The block `b` continues a run from, or `None` if `b` heads a run
    /// (or is unreachable).
    pub fn run_pred(&self, b: Block) -> Option<Block> {
        self.pred[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{CmpOp, FunctionBuilder, RegClass};

    /// entry -> header -> (body -> header | exit)
    fn loop_fn() -> pdgc_ir::Function {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, p, z, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(p));
        b.finish()
    }

    #[test]
    fn preds_and_succs() {
        let f = loop_fn();
        let cfg = Cfg::compute(&f);
        let header = Block::new(1);
        let body = Block::new(2);
        let exit = Block::new(3);
        assert_eq!(cfg.succs(Block::ENTRY), &[header]);
        assert_eq!(cfg.preds(header), &[Block::ENTRY, body]);
        assert_eq!(cfg.succs(header), &[body, exit]);
        assert_eq!(cfg.preds(exit), &[header]);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_forward_edges() {
        let f = loop_fn();
        let cfg = Cfg::compute(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], Block::ENTRY);
        assert!(cfg.rpo_number(Block::new(1)) < cfg.rpo_number(Block::new(2)));
        assert!(cfg.rpo_number(Block::new(1)) < cfg.rpo_number(Block::new(3)));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_block_excluded_from_rpo() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let dead = b.create_block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.reverse_postorder().len(), 1);
    }

    /// The run predecessor of every block, in block order.
    fn runs(f: &pdgc_ir::Function) -> Vec<Option<Block>> {
        let map = RunMap::compute(&Cfg::compute(f));
        f.block_ids().map(|b| map.run_pred(b)).collect()
    }

    #[test]
    fn linear_runs_chain_straight_line_blocks() {
        let mut b = FunctionBuilder::new("runs", vec![RegClass::Int], None);
        let p = b.param(0);
        let m1 = b.create_block();
        let m2 = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        b.jump(m1);
        b.switch_to(m1);
        b.jump(m2);
        b.switch_to(m2);
        b.branch_imm(CmpOp::Gt, p, 0, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        // entry→m1→m2 is one run; t, e, j each start their own.
        assert_eq!(
            runs(&f),
            [None, Some(Block::ENTRY), Some(m1), None, None, None]
        );
    }

    #[test]
    fn branch_targets_and_joins_start_runs() {
        let mut b = FunctionBuilder::new("diamond", vec![RegClass::Int], None);
        let p = b.param(0);
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        b.branch_imm(CmpOp::Gt, p, 0, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        // Two exits leave the entry; two entries reach the join.
        assert_eq!(runs(&f), [None; 4]);
    }

    #[test]
    fn self_loop_block_heads_a_run() {
        let mut b = FunctionBuilder::new("spin", vec![RegClass::Int], None);
        let p = b.param(0);
        let h = b.create_block();
        let exit = b.create_block();
        b.jump(h);
        b.switch_to(h);
        b.branch_imm(CmpOp::Ne, p, 0, h, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        // h is entered from the entry and from itself; exit's only
        // predecessor h has two distinct successors.
        assert_eq!(runs(&f), [None, None, None]);
    }

    #[test]
    fn branch_with_one_distinct_target_chains() {
        let mut b = FunctionBuilder::new("same", vec![RegClass::Int], None);
        let p = b.param(0);
        let t = b.create_block();
        b.branch_imm(CmpOp::Gt, p, 0, t, t);
        b.switch_to(t);
        b.ret(None);
        let f = b.finish();
        assert_eq!(runs(&f), [None, Some(Block::ENTRY)]);
    }

    #[test]
    fn unreachable_predecessor_does_not_break_a_chain() {
        let mut b = FunctionBuilder::new("dead", vec![], None);
        let next = b.create_block();
        let dead = b.create_block();
        b.jump(next);
        b.switch_to(next);
        b.ret(None);
        b.switch_to(dead);
        b.jump(next);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(runs(&f), [None, Some(Block::ENTRY), None]);
    }

    #[test]
    fn entry_never_has_a_run_predecessor() {
        // The latch's only exit is the entry, and it is the entry's only
        // predecessor, but nothing runs into the function's first block.
        let mut b = FunctionBuilder::new("rotated", vec![RegClass::Int], None);
        let p = b.param(0);
        let latch = b.create_block();
        let exit = b.create_block();
        b.branch_imm(CmpOp::Ne, p, 0, latch, exit);
        b.switch_to(latch);
        b.jump(Block::ENTRY);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.preds(Block::ENTRY), &[latch]);
        assert_eq!(runs(&f), [None, None, None]);
    }
}
