//! Control-flow utilities: generic dominator computation, forward
//! dominator trees and control dependence (Ferrante-Ottenstein-Warren
//! construction over post-dominators).

use std::collections::HashMap;

use pir::ir::{BlockId, Function, Op};

/// Computes immediate dominators for a generic graph with `n` nodes,
/// `entry`, and a successor function, using the Cooper-Harvey-Kennedy
/// iterative algorithm. Unreachable nodes get `None`.
fn idoms(n: usize, entry: u32, succs: &[Vec<u32>]) -> Vec<Option<u32>> {
    // Reverse postorder from entry.
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    let mut stack = vec![(entry, 0usize)];
    visited[entry as usize] = true;
    while let Some((b, child)) = stack.pop() {
        let sc = &succs[b as usize];
        if child < sc.len() {
            stack.push((b, child + 1));
            let s = sc[child];
            if !visited[s as usize] {
                visited[s as usize] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    let rpo: Vec<u32> = post.iter().rev().copied().collect();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        rpo_index[*b as usize] = i;
    }
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for b in 0..n {
        if !visited[b] {
            continue;
        }
        for &s in &succs[b] {
            preds[s as usize].push(b as u32);
        }
    }
    let mut idom: Vec<Option<u32>> = vec![None; n];
    idom[entry as usize] = Some(entry);
    let intersect = |idom: &[Option<u32>], mut a: u32, mut b: u32| {
        while a != b {
            while rpo_index[a as usize] > rpo_index[b as usize] {
                a = idom[a as usize].expect("processed");
            }
            while rpo_index[b as usize] > rpo_index[a as usize] {
                b = idom[b as usize].expect("processed");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<u32> = None;
            for &p in &preds[b as usize] {
                if idom[p as usize].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, p, cur),
                });
            }
            if new_idom.is_some() && new_idom != idom[b as usize] {
                idom[b as usize] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Builds the reversed CFG of `f` with a virtual exit node (`n`) that
/// collects every `ret`/`unreachable` block. Returns the reverse
/// successor lists (`n + 1` nodes) and the virtual exit id.
fn reverse_cfg(f: &Function) -> (Vec<Vec<u32>>, u32) {
    let n = f.blocks.len();
    let exit = n as u32;
    let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    for (b, out) in fwd.iter_mut().enumerate().take(n) {
        let succ = f.successors(BlockId(b as u32));
        if succ.is_empty() {
            out.push(exit);
        } else {
            for s in succ {
                out.push(s.0);
            }
        }
    }
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    for (b, ss) in fwd.iter().enumerate() {
        for &s in ss {
            rev[s as usize].push(b as u32);
        }
    }
    (rev, exit)
}

/// A dominator tree over one function's basic blocks, with an ancestor
/// query. Built once per function and reused for many queries (the
/// persist-ordering pass asks one per candidate pair).
pub struct DomTree {
    idom: Vec<Option<u32>>,
}

impl DomTree {
    /// Forward dominators from the entry block.
    pub fn dominators(f: &Function) -> DomTree {
        let n = f.blocks.len();
        let succs: Vec<Vec<u32>> = (0..n)
            .map(|b| {
                f.successors(BlockId(b as u32))
                    .iter()
                    .map(|s| s.0)
                    .collect()
            })
            .collect();
        DomTree {
            idom: idoms(n, 0, &succs),
        }
    }

    /// Whether `a` dominates `b` (reflexively): walks `b`'s
    /// immediate-dominator chain. Unreachable blocks dominate nothing and
    /// are dominated by nothing but themselves.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b.0;
        loop {
            if cur == a.0 {
                return true;
            }
            match self.idom.get(cur as usize).copied().flatten() {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }
}

/// Control-dependence map for one function: `deps[b]` lists the blocks
/// whose terminating branch `b` is control dependent on.
///
/// Built from post-dominators over the reverse CFG (with a virtual exit
/// collecting every `ret`/`unreachable` block): for each CFG edge `A → S`,
/// every block on the post-dominator chain from `S` up to (excluding)
/// `ipostdom(A)` is control dependent on `A`.
pub fn control_dependence(f: &Function) -> HashMap<BlockId, Vec<BlockId>> {
    let n = f.blocks.len();
    let (rev, exit) = reverse_cfg(f);
    let ipdom = idoms(n + 1, exit, &rev);

    let mut deps: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for a in 0..n {
        let succ = f.successors(BlockId(a as u32));
        if succ.len() < 2 {
            continue; // only branches create control dependence
        }
        let Some(a_ipdom) = ipdom[a] else { continue };
        for s in succ {
            let mut b = s.0;
            loop {
                if b == a_ipdom || b as usize >= n {
                    break;
                }
                if b == a as u32 {
                    // A loop: A is control dependent on itself; record and
                    // stop.
                    deps.entry(BlockId(b)).or_default().push(BlockId(a as u32));
                    break;
                }
                deps.entry(BlockId(b)).or_default().push(BlockId(a as u32));
                match ipdom[b as usize] {
                    Some(next) if next != b => b = next,
                    _ => break,
                }
            }
        }
    }
    for v in deps.values_mut() {
        v.sort_unstable_by_key(|b| b.0);
        v.dedup();
    }
    deps
}

/// The terminator instruction index of a block, if it is a conditional
/// branch.
pub fn branch_inst_of(f: &Function, b: BlockId) -> Option<u32> {
    let last = *f.blocks[b.0 as usize].insts.last()?;
    match f.insts[last as usize].op {
        Op::CondBr { .. } => Some(last),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::builder::ModuleBuilder;

    #[test]
    fn if_body_is_control_dependent_on_condition() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, true);
        let p = f.param(0);
        let out = f.local_c(0);
        let one = f.konst(1);
        let c = f.ugt(p, one);
        f.if_(c, |f| {
            let v = f.konst(9);
            f.store8(out, v);
        });
        let r = f.load8(out);
        f.ret(Some(r));
        f.finish();
        let module = m.finish().unwrap();
        let func = module.func(module.func_by_name("f").unwrap());
        let deps = control_dependence(func);
        // The then-block (block 1 by construction) depends on the entry
        // block's branch.
        let then_deps = deps.get(&BlockId(1)).expect("then block has deps");
        assert_eq!(then_deps, &vec![BlockId(0)]);
        // The merge block does not depend on the branch.
        assert!(!deps.contains_key(&BlockId(2)));
    }

    #[test]
    fn loop_body_depends_on_loop_head() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, false);
        let n = f.param(0);
        let i = f.local_c(0);
        f.while_(
            |f| {
                let iv = f.load8(i);
                f.ult(iv, n)
            },
            |f| {
                let iv = f.load8(i);
                let one = f.konst(1);
                let nv = f.add(iv, one);
                f.store8(i, nv);
            },
        );
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let func = module.func(module.func_by_name("f").unwrap());
        let deps = control_dependence(func);
        // Find the body block: the one whose deps include the head.
        let head_branch_block = (0..func.blocks.len() as u32)
            .map(BlockId)
            .find(|b| branch_inst_of(func, *b).is_some())
            .expect("loop head has a condbr");
        let dependents: Vec<BlockId> = deps
            .iter()
            .filter(|(_, d)| d.contains(&head_branch_block))
            .map(|(b, _)| *b)
            .collect();
        assert!(
            !dependents.is_empty(),
            "loop body (and head) control-depend on the head branch"
        );
        // The head itself is control dependent on itself (it loops).
        assert!(deps
            .get(&head_branch_block)
            .map(|d| d.contains(&head_branch_block))
            .unwrap_or(false));
    }

    #[test]
    fn dominators_of_a_diamond() {
        // entry(0) -> then(1) / else(2) -> merge(3): entry dominates all,
        // branches dominate only themselves.
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, true);
        let p = f.param(0);
        let z = f.konst(0);
        let c = f.ne(p, z);
        let out = f.local_c(0);
        f.if_else(
            c,
            |f| {
                let v = f.konst(1);
                f.store8(out, v);
            },
            |f| {
                let v = f.konst(2);
                f.store8(out, v);
            },
        );
        let r = f.load8(out);
        f.ret(Some(r));
        f.finish();
        let module = m.finish().unwrap();
        let func = module.func(module.func_by_name("f").unwrap());
        let dom = DomTree::dominators(func);
        let (entry, then_, merge) = (BlockId(0), BlockId(1), BlockId(3));
        assert!(dom.dominates(entry, merge));
        assert!(dom.dominates(entry, then_));
        assert!(!dom.dominates(then_, merge));
        assert!(dom.dominates(merge, merge), "reflexive");
    }

    #[test]
    fn straight_line_has_no_control_deps() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, true);
        let a = f.konst(1);
        let b = f.konst(2);
        let c = f.add(a, b);
        f.ret(Some(c));
        f.finish();
        let module = m.finish().unwrap();
        let func = module.func(module.func_by_name("f").unwrap());
        assert!(control_dependence(func).is_empty());
    }
}
