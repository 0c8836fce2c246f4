//! The paper's data-dependency graph `G = {V, E}` (Section IV-A): one node
//! per PTX instruction, one edge per def-use data dependency.
//!
//! The graph is built with a reaching-definitions pass over the kernel body.
//! Because kernels contain loops, a use may be reached by definitions that
//! appear *later* in program order (loop-carried dependencies); the builder
//! handles this with a two-pass fixpoint over the label-resolved control
//! flow.

use crate::cfg::Cfg;
use ptx::inst::BodyElem;
use ptx::kernel::Kernel;
use ptx::types::Reg;
use std::collections::{HashMap, HashSet};

/// Dense register numbering for the reaching-definitions pass: every
/// register mentioned by the kernel gets a contiguous slot (first-appearance
/// order), so per-block reach sets become flat `Vec`s indexed by slot
/// instead of `HashMap<Reg, _>` probes in the fixpoint loop.
struct RegSlots {
    map: HashMap<Reg, usize>,
}

impl RegSlots {
    fn build(instrs: &[ptx::inst::Instruction]) -> Self {
        let mut map = HashMap::new();
        let mut see = |r: Reg| {
            let next = map.len();
            map.entry(r).or_insert(next);
        };
        for i in instrs {
            i.for_each_src(&mut see);
            i.dst().into_iter().for_each(&mut see);
        }
        Self { map }
    }

    fn get(&self, r: Reg) -> Option<usize> {
        self.map.get(&r).copied()
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Data-dependency graph over the instructions of one kernel.
#[derive(Debug)]
pub struct DepGraph {
    /// `edges[i]` = instruction indices whose values instruction `i` reads.
    pub edges: Vec<Vec<usize>>,
    /// Instruction index (into [`Self::instrs`]) of every body element that
    /// is an instruction.
    pub instrs: Vec<ptx::inst::Instruction>,
}

impl DepGraph {
    /// Build the dependency graph of `kernel`.
    pub fn build(kernel: &Kernel) -> Self {
        let instrs: Vec<_> = kernel
            .body
            .iter()
            .filter_map(|e| match e {
                BodyElem::Inst(i) => Some(i.clone()),
                BodyElem::Label(_) => None,
            })
            .collect();
        let cfg = Cfg::build(kernel);
        let slots = RegSlots::build(&instrs);

        // per-block gen sets (last def of each reg in the block) and the
        // set of (slot -> defs) reaching each block entry, iterated to
        // fixpoint over flat slot-indexed vectors
        let nblocks = cfg.blocks.len();
        let empty: Vec<HashSet<usize>> = vec![HashSet::new(); slots.len()];
        let mut reach_in: Vec<Vec<HashSet<usize>>> = vec![empty.clone(); nblocks];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nblocks {
                // in = union of predecessors' out
                let mut inset = empty.clone();
                for &p in &cfg.preds[b] {
                    let out = block_out(&cfg, p, &reach_in[p], &instrs, &slots);
                    for (slot, defs) in out.into_iter().enumerate() {
                        inset[slot].extend(defs);
                    }
                }
                if inset != reach_in[b] {
                    reach_in[b] = inset;
                    changed = true;
                }
            }
        }

        // second pass: record edges
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); instrs.len()];
        for (reach, block) in reach_in.iter().zip(&cfg.blocks) {
            let mut live: Vec<HashSet<usize>> = reach.clone();
            for &i in block {
                instrs[i].for_each_src(|src| {
                    if let Some(slot) = slots.get(src) {
                        for &d in &live[slot] {
                            if !edges[i].contains(&d) {
                                edges[i].push(d);
                            }
                        }
                    }
                });
                if let Some(d) = instrs[i].dst() {
                    if let Some(slot) = slots.get(d) {
                        live[slot] = HashSet::from([i]);
                    }
                }
            }
        }
        for e in &mut edges {
            e.sort_unstable();
        }
        DepGraph { edges, instrs }
    }

    /// Number of nodes (instructions).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }

    /// Backward transitive closure from `seeds` (instruction indices):
    /// the paper's slice subgraph `G_v*`.
    pub fn backward_closure(&self, seeds: &[usize]) -> HashSet<usize> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = seeds.to_vec();
        while let Some(i) = stack.pop() {
            if seen.insert(i) {
                for &d in &self.edges[i] {
                    if !seen.contains(&d) {
                        stack.push(d);
                    }
                }
            }
        }
        seen
    }
}

/// Compute the reaching-definitions out-set of block `b` given its in-set
/// (both flat slot-indexed vectors).
fn block_out(
    cfg: &Cfg,
    b: usize,
    inset: &[HashSet<usize>],
    instrs: &[ptx::inst::Instruction],
    slots: &RegSlots,
) -> Vec<HashSet<usize>> {
    let mut out = inset.to_vec();
    for &i in &cfg.blocks[b] {
        if let Some(d) = instrs[i].dst() {
            if let Some(slot) = slots.get(d) {
                out[slot] = HashSet::from([i]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptx::builder::KernelBuilder;
    use ptx::inst::Operand;
    use ptx::types::{BinOp, Type};

    #[test]
    fn straight_line_deps() {
        let mut kb = KernelBuilder::new("k", 32);
        let a = kb.r();
        kb.mov(Type::U32, a, Operand::ImmI(1)); // 0
        let b = kb.bin_r(BinOp::Add, Type::U32, a, Operand::ImmI(2)); // 1
        let _c = kb.bin_r(BinOp::Mul, Type::U32, b, a); // 2
        kb.ret(); // 3
        let g = DepGraph::build(&kb.finish());
        assert_eq!(g.edges[1], vec![0]);
        assert_eq!(g.edges[2], vec![0, 1]);
        assert!(g.edges[3].is_empty());
    }

    #[test]
    fn loop_carried_dependency() {
        // i = 0; L: i = i + 1; if (i < n) goto L
        let mut kb = KernelBuilder::new("k", 32);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32); // 0
        let i = kb.r();
        kb.mov(Type::U32, i, Operand::ImmI(0)); // 1
        let head = kb.label();
        kb.place_label(head);
        kb.bin(BinOp::Add, Type::U32, i, i, Operand::ImmI(1)); // 2
        let p = kb.p();
        kb.setp(ptx::types::CmpOp::Lt, Type::U32, p, i, n); // 3
        kb.bra_if(p, false, head); // 4
        kb.ret(); // 5
        let g = DepGraph::build(&kb.finish());
        // the add reads i defined by mov (1) AND by itself (2) around the loop
        assert!(g.edges[2].contains(&1));
        assert!(
            g.edges[2].contains(&2),
            "loop-carried edge missing: {:?}",
            g.edges[2]
        );
        // setp depends on the add and the param load
        assert!(g.edges[3].contains(&2));
        assert!(g.edges[3].contains(&0));
        // the branch depends on the predicate
        assert!(g.edges[4].contains(&3));
    }

    #[test]
    fn backward_closure_is_the_slice() {
        let mut kb = KernelBuilder::new("k", 32);
        let p_n = kb.param("n", Type::U32);
        let n = kb.ld_param(&p_n, Type::U32); // 0: in slice
        let x = kb.f(); // payload value, not in slice
        kb.mov(Type::F32, x, Operand::ImmF(1.0)); // 1
        let y = kb.bin_r(BinOp::Mul, Type::F32, x, x); // 2
        let _ = y;
        let p = kb.p();
        kb.setp(ptx::types::CmpOp::Lt, Type::U32, p, n, Operand::ImmI(5)); // 3
        let l = kb.label();
        kb.bra_if(p, false, l); // 4
        kb.place_label(l);
        kb.ret(); // 5
        let g = DepGraph::build(&kb.finish());
        let slice = g.backward_closure(&[4]);
        assert!(slice.contains(&0));
        assert!(slice.contains(&3));
        assert!(slice.contains(&4));
        assert!(!slice.contains(&1), "payload leaked into slice");
        assert!(!slice.contains(&2));
    }

    #[test]
    fn gemm_slice_excludes_fma_payload() {
        let k = ptx_codegen_kernels::gemm();
        let g = DepGraph::build(&k);
        let branches: Vec<usize> = g
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_terminator())
            .map(|(idx, _)| idx)
            .collect();
        let slice = g.backward_closure(&branches);
        // the slice must be a strict subset: fma payloads are excluded
        assert!(slice.len() < g.len());
        let fmas: Vec<usize> = g
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.category() == ptx::inst::Category::FloatFma)
            .map(|(idx, _)| idx)
            .collect();
        for f in fmas {
            assert!(!slice.contains(&f), "fma {f} should not be in the slice");
        }
    }

    /// Access the codegen templates without a circular dev-dependency fuss.
    mod ptx_codegen_kernels {
        pub fn gemm() -> ptx::kernel::Kernel {
            ptx_codegen::Template::GemmTiled.build()
        }
    }
}
