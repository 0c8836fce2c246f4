//! In-memory spans recorded from the benchmark's side of each layer call:
//! name, start, end, parent and op id, plus the allocation events the
//! recording thread made inside. Spans are written out when the run ends,
//! never during it. Work fanned out over threads records into one child
//! tracer per task, absorbed under the span that was open when it forked.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    /// Recorded on another thread than its parent's (a parallel task).
    pub forked: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    /// An empty tracer for one parallel task: same clock and op, so its
    /// spans can be absorbed back without shifting.
    pub fn child(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: self.op,
        }
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            forked: false,
        });
        self.open.push(id);
        let a0 = alloc::thread_allocs();
        let t0 = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let t1 = self.origin.elapsed().as_nanos() as u64;
        let a1 = alloc::thread_allocs();
        self.open.pop();
        let s = &mut self.spans[id];
        s.start_ns = t0;
        s.end_ns = t1;
        s.allocs = a1 - a0;
        out
    }

    /// Merge a parallel task's tracer (from [`Tracer::child`]) into this
    /// one; its top-level spans nest under the open span.
    pub fn absorb(&mut self, task: Tracer) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(task.spans.into_iter().map(|mut s| {
            match s.parent {
                Some(p) => s.parent = Some(p + base),
                None => {
                    s.parent = under;
                    s.forked = true;
                }
            }
            s
        }));
    }

    /// Per span name: (self seconds, self allocation events), summed over
    /// every span of that name. Self time is the span minus the union of
    /// its children's intervals (parallel children overlap); self
    /// allocations are the span's minus those of children on its thread.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
                if !s.forked {
                    child_allocs[p] += s.allocs;
                }
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for ((s, mut kids), kid_allocs) in self.spans.iter().zip(children).zip(child_allocs) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
            e.1 += s.allocs - kid_allocs;
        }
        out
    }

    /// Durations (seconds) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Tab-separated dump: id, parent, op, name, start_ns, end_ns, allocs.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\tallocs\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}
