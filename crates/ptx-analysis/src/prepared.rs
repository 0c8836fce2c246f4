//! The process-wide table of prepared kernels.
//!
//! Counting a launch needs its kernel decoded ([`DenseProgram`]), its
//! branch slice, and on the poly tier its compiled [`KernelPoly`]. All
//! three depend on the kernel alone, and every lowered plan draws on the
//! same 28 templates, so the table prepares each kernel once per process
//! and every plan, launch and simulator shares the result: the paper's
//! Table IV argument (analysis is paid once, `t_dca + n·t_pm`) applied to
//! kernels.
//!
//! Entries are keyed by kernel *content*: a structural hash, confirmed by
//! comparing the stored kernel, so different kernels never share an entry
//! whatever their names. The table holds at most [`KERNEL_TABLE_CAPACITY`]
//! kernels and evicts the least recently used one beyond that.
//!
//! Every lowered plan shares one template list (`Module::kernels`), so
//! [`prepare_plan`] also resolves kernels by (list, index): the table
//! remembers which entry each kernel of the last list it saw found, and a
//! plan on that list reaches its entries without hashing or comparing a
//! kernel. A list's first plan, and [`prepare_kernel`], go by content.
//!
//! The table also defines what a launch's counts depend on (see
//! [`PreparedKernel::read_args`]), which is what the counting and
//! simulation memo tables key on.

use crate::exec::{DOp, DenseProgram};
use crate::poly::{compile_kernel, KernelPoly};
use crate::slice::branch_slice;
use ptx::kernel::{Kernel, KernelLaunch, LaunchPlan};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Kernels the table holds at most. Lowered plans use 28 templates, so
/// they never evict; a stream of other kernels recycles the least
/// recently used entries.
pub const KERNEL_TABLE_CAPACITY: usize = 64;

/// A poly compile's outcome: the polynomial, or why the kernel stays on
/// the interpreter.
type PolyResult = Result<KernelPoly, &'static str>;

/// One kernel, prepared for counting any number of its launches.
pub struct PreparedKernel {
    kernel: Kernel,
    program: Arc<DenseProgram>,
    slice: HashSet<usize>,
    /// Parameter slots the branch slice loads, ascending.
    slice_params: Box<[u32]>,
    /// Compiled on first use: over the slice (`[0]`), over the whole
    /// kernel (`[1]`).
    polys: [OnceLock<PolyResult>; 2],
}

impl PreparedKernel {
    fn new(kernel: Kernel) -> Self {
        let program = Arc::new(DenseProgram::decode(&kernel));
        let slice = branch_slice(&kernel);
        let mut slice_params: Vec<u32> = program
            .prog
            .iter()
            .enumerate()
            .filter_map(|(pc, inst)| match inst.op {
                DOp::LdParam { pslot, .. } if slice.contains(&pc) => Some(pslot),
                _ => None,
            })
            .collect();
        slice_params.sort_unstable();
        slice_params.dedup();
        PreparedKernel {
            kernel,
            program,
            slice,
            slice_params: slice_params.into(),
            polys: Default::default(),
        }
    }

    /// The kernel this entry was prepared from.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The decoded program, shared by every launch's interpreter runs.
    pub fn program(&self) -> &Arc<DenseProgram> {
        &self.program
    }

    /// The branch slice `G_v*`.
    pub(crate) fn slice(&self) -> &HashSet<usize> {
        &self.slice
    }

    /// The kernel compiled to trip-count polynomials, over the branch slice
    /// when `use_slice` (matching the interpreter mode it stands in for).
    /// Compiled on first use, then shared; `Err` keeps the kernel on the
    /// interpreter.
    pub fn poly(&self, use_slice: bool) -> Result<&KernelPoly, &'static str> {
        self.polys[usize::from(!use_slice)]
            .get_or_init(|| compile_kernel(&self.program, use_slice.then_some(&self.slice)))
            .as_ref()
            .map_err(|e| *e)
    }

    /// The arguments of `args` that the branch slice reads, in slot order.
    ///
    /// Only sliced values decide branches, so a launch's path, counts and
    /// errors depend on nothing but its grid, its argument count and these
    /// values (a missing argument fails the same way at any count). Launches
    /// that differ only in their buffer addresses therefore share one memo
    /// entry.
    pub fn read_args(&self, args: &[u64]) -> Vec<u64> {
        self.slice_params
            .iter()
            .filter_map(|&slot| args.get(slot as usize).copied())
            .collect()
    }
}

struct Entry {
    hash: u64,
    /// Logical last-use stamp for LRU eviction.
    stamp: u64,
    prepared: Arc<PreparedKernel>,
}

/// A kernel list resolved by index: the entry each of its kernels found.
struct List {
    /// Held, so no other list takes this address while the table names
    /// it; and since the list is then shared, `Arc::make_mut` on a module
    /// copies it before editing, so its kernels never change under `slots`.
    kernels: Arc<Vec<Kernel>>,
    /// Per kernel, the index of its entry once resolved.
    slots: Vec<Option<usize>>,
}

struct Table {
    entries: Vec<Entry>,
    /// The kernel list [`prepare_plan`] saw last.
    list: Option<List>,
    tick: u64,
}

impl Table {
    /// The index of the entry for a kernel equal to `kernel`, prepared now
    /// (decoded and sliced, poly-compiled on first use) if there is none.
    fn find_or_prepare(&mut self, kernel: &Kernel) -> usize {
        let mut h = DefaultHasher::new();
        kernel.hash(&mut h);
        let hash = h.finish();
        self.tick += 1;
        let stamp = self.tick;
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.hash == hash && e.prepared.kernel == *kernel)
        {
            self.entries[i].stamp = stamp;
            return i;
        }
        let entry = Entry {
            hash,
            stamp,
            prepared: Arc::new(PreparedKernel::new(kernel.clone())),
        };
        if self.entries.len() < KERNEL_TABLE_CAPACITY {
            self.entries.push(entry);
            return self.entries.len() - 1;
        }
        let lru = (0..self.entries.len())
            .min_by_key(|&i| self.entries[i].stamp)
            .expect("a full table has entries");
        self.entries[lru] = entry;
        // slots that found the evicted kernel resolve by content again
        for slot in self.list.iter_mut().flat_map(|l| &mut l.slots) {
            if *slot == Some(lru) {
                *slot = None;
            }
        }
        lru
    }

    /// The index of the entry for kernel `k` of `list`, which is
    /// `kernel`: through its slot, or by content on first use.
    fn resolve(&mut self, k: usize, kernel: &Kernel) -> usize {
        if let Some(i) = self.list.as_ref().and_then(|l| l.slots[k]) {
            self.tick += 1;
            self.entries[i].stamp = self.tick;
            return i;
        }
        let i = self.find_or_prepare(kernel);
        if let Some(l) = &mut self.list {
            l.slots[k] = Some(i);
        }
        i
    }
}

fn table() -> MutexGuard<'static, Table> {
    static TABLE: Mutex<Table> = Mutex::new(Table {
        entries: Vec::new(),
        list: None,
        tick: 0,
    });
    // entries are replaced whole, so a panic elsewhere cannot leave one
    // half-written; a poisoned lock is safe to keep using
    TABLE.lock().unwrap_or_else(|e| e.into_inner())
}

/// `kernel` prepared: the table's entry for an equal kernel, or a new one
/// (decoded and sliced now, poly-compiled on first use).
pub fn prepare_kernel(kernel: &Kernel) -> Arc<PreparedKernel> {
    let mut t = table();
    // prepared under the lock, so a kernel is decoded and sliced at most
    // once while it stays in the table, even when threads race for it
    let i = t.find_or_prepare(kernel);
    Arc::clone(&t.entries[i].prepared)
}

/// The kernels `plan` launches, each prepared once: slot `i` holds module
/// kernel `i`, or `None` when no launch uses it. Each is the `Arc`
/// [`prepare_kernel`] returns for that kernel, found by index when the
/// plan's kernel list was seen before.
pub fn prepare_plan(plan: &LaunchPlan) -> Vec<Option<Arc<PreparedKernel>>> {
    let kernels = &plan.module.kernels;
    let mut t = table();
    match &t.list {
        Some(l) if Arc::ptr_eq(&l.kernels, kernels) => {}
        _ => {
            t.list = Some(List {
                kernels: Arc::clone(kernels),
                slots: vec![None; kernels.len()],
            })
        }
    }
    let mut prepared = vec![None; kernels.len()];
    for l in &plan.launches {
        if prepared[l.kernel].is_none() {
            let i = t.resolve(l.kernel, &kernels[l.kernel]);
            prepared[l.kernel] = Some(Arc::clone(&t.entries[i].prepared));
        }
    }
    prepared
}

/// Drop every prepared kernel and the list resolved by index, so the next
/// use of each kernel prepares it anew (test isolation and cold-start
/// measurement; handles already given out stay valid).
pub fn clear_kernel_table() {
    let mut t = table();
    t.entries.clear();
    t.list = None;
}

/// Group `launches` by `key` in first-seen order. Returns the index of each
/// group's first launch and, per launch, the index of its group.
pub fn group_launches<K: Hash + Eq>(
    launches: &[KernelLaunch],
    mut key: impl FnMut(&KernelLaunch) -> K,
) -> (Vec<usize>, Vec<usize>) {
    let mut firsts = Vec::new();
    let mut index: HashMap<K, usize> = HashMap::new();
    let group_of = launches
        .iter()
        .enumerate()
        .map(|(i, l)| {
            *index.entry(key(l)).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, group_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptx::builder::KernelBuilder;
    use ptx::inst::{Op, Operand};
    use ptx::types::Type;

    /// A kernel named `k` that moves `imm` into a register.
    fn kernel_with(imm: f32) -> Kernel {
        let mut kb = KernelBuilder::new("k", 32);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(imm));
        kb.ret();
        kb.finish()
    }

    fn imm_bits(k: &Kernel) -> u32 {
        k.instructions()
            .find_map(|i| match i.op {
                Op::Mov {
                    src: Operand::ImmF(v),
                    ..
                } => Some(v.to_bits()),
                _ => None,
            })
            .expect("the kernel moves an immediate")
    }

    #[test]
    fn same_named_kernels_get_their_own_entries() {
        // names never identify a kernel, and 0.0 / -0.0 are different code
        for (a, b) in [(1.0f32, 2.0f32), (0.0, -0.0)] {
            let pa = prepare_kernel(&kernel_with(a));
            let pb = prepare_kernel(&kernel_with(b));
            assert_eq!(imm_bits(pa.kernel()), a.to_bits());
            assert_eq!(imm_bits(pb.kernel()), b.to_bits());
        }
    }

    #[test]
    fn table_stays_within_capacity() {
        for i in 0..2 * KERNEL_TABLE_CAPACITY {
            prepare_kernel(&kernel_with(1000.0 + i as f32));
        }
        assert!(table().entries.len() <= KERNEL_TABLE_CAPACITY);
    }
}
