//! Push-based, morsel-driven parallel executor.
//!
//! The volcano path ([`crate::exec::execute`]) walks the plan tree
//! pull-style and models parallelism with pre-split worker traces. This
//! module replaces it for analytical plans: the [`PhysNode`] tree is
//! decomposed at pipeline breakers (hash-join build, aggregation, sort)
//! into a sequence of pipelines, each of which pushes fixed-size columnar
//! morsels ([`Batch`]es) from a source through a chain of
//! [`PhysicalOperator`]s into a sink. At simulation time each pipeline
//! becomes a [`MorselStage`]: a shared queue of per-morsel demand traces
//! claimed dynamically by `dop` worker partitions, so DOP, memory-grant,
//! and LLC sensitivity emerge from actual parallel execution rather than
//! modeled barriers.
//!
//! Execution is two-phase, mirroring the engine's logical/paper-scale
//! split (DESIGN.md §1):
//!
//! 1. **Logical pass** — the source cuts its logical rows into morsel
//!    batches, built column by column (columnstore segments decode
//!    straight into typed vectors; no row is materialized), and pushes
//!    each batch through the operator chain in morsel order. Operators
//!    transform batches (vectorized expression evaluation via
//!    [`crate::vexpr`]) and record per-morsel input counts.
//! 2. **Demand synthesis** — once totals are known (hash-table bytes,
//!    spill volumes), each operator's `finalize` writes its paper-scale
//!    per-morsel instruction and memory demands into a [`FinalizeCtx`],
//!    which assembles one fused compute burst per morsel plus the page
//!    runs of scan sources and any spill stages.
//!
//! Rows produced are byte-identical to the volcano path: operators process
//! rows in morsel order (= volcano row order), so hash-table insertion
//! sequences, aggregation group order, and sort stability all agree, and
//! results are invariant across DOP settings by construction. Plans with
//! nested-loop joins or index-range sources return `None` from
//! [`execute_push`] and fall back to the volcano path.

use crate::batch::{Batch, ColumnBuilder, ColumnVector};
use crate::db::{Database, TableId};
use crate::exec::{
    collect_cols, scale_profile, AggAcc, DemandTrace, KeyPart, MorselStage, QueryExecution,
    TraceItem,
};
use crate::expr::Expr;
use crate::optimizer::workspace_width;
use crate::physplan::{PhysNode, PhysPlan};
use crate::plan::{AggSpec, JoinKind};
use crate::vexpr::{compile, filter_mask, PhysicalExpr};
use dbsens_hwsim::fx::FxHashMap;
use dbsens_hwsim::mem::{AccessPattern, MemProfile, Region};
use dbsens_storage::columnstore::LiveScan;
use dbsens_storage::value::{Row, Value};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Target morsel size in *modeled* (paper-scale) rows.
const MORSEL_ROWS: f64 = 1_000_000.0;

/// Base region id for transient per-query structures; matches the volcano
/// executor so both paths share the allocator-reuse model.
const TRANSIENT_REGION_BASE: u64 = 1 << 40;

/// Result of pushing a batch into an operator.
#[derive(Debug)]
pub enum PollPush {
    /// The operator produced output for this input; push it downstream.
    Continue(Batch),
    /// The operator consumed the batch (sinks accumulate state and emit
    /// nothing until `finalize`).
    NeedsMore,
    /// Like `Continue`, but the operator is saturated (e.g. a `Top` that
    /// has its n rows). The executor keeps pushing remaining morsels so
    /// upstream demand accounting stays faithful to the volcano path.
    Finished(Batch),
}

/// One operator in a push pipeline.
///
/// Operators receive each morsel exactly once via [`push`] during the
/// logical pass (in morsel order, so order-sensitive state like hash-table
/// insertion sequences matches the volcano executor) and contribute their
/// paper-scale demand in [`finalize`] once pipeline totals are known.
///
/// [`push`]: PhysicalOperator::push
/// [`finalize`]: PhysicalOperator::finalize
pub trait PhysicalOperator: fmt::Debug {
    /// Processes one morsel on behalf of `partition`.
    fn push(&mut self, partition: usize, batch: Batch) -> PollPush;

    /// Completes the operator after all morsels were pushed: finishes any
    /// buffered logical work (building the hash table, sorting) and
    /// records per-morsel demand in `fin`. Sinks that produce the query's
    /// final result return its rows; all other operators return `None`.
    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>>;
}

/// Demand-synthesis context handed to [`PhysicalOperator::finalize`].
///
/// Carries the engine database (cost model and layouts), the query's
/// grant state, and the per-morsel accumulators of the pipeline being
/// finalized. Operators add instructions and memory patterns per morsel;
/// the executor fuses each morsel's contributions into a single compute
/// burst.
pub struct FinalizeCtx<'a> {
    /// The database whose cost model and layouts price the demand.
    pub db: &'a Database,
    /// Effective degree of parallelism of the query.
    pub dop: usize,
    grant: u64,
    desired: u64,
    spilled: u64,
    next_region: u64,
    acct: PipelineAcct,
}

#[derive(Default)]
struct PipelineAcct {
    morsels: usize,
    instr: Vec<f64>,
    mem: Vec<MemProfile>,
    lead_io: Vec<Vec<TraceItem>>,
    extra: Vec<DemandTrace>,
    post: Vec<MorselStage>,
}

impl<'a> FinalizeCtx<'a> {
    /// Number of morsels in the pipeline being finalized.
    pub fn morsels(&self) -> usize {
        self.acct.morsels
    }

    /// Paper-scale rows represented by `logical` logical rows.
    pub fn modeled(&self, logical: u64) -> f64 {
        logical as f64 * self.db.row_scale
    }

    /// Adds `instructions` to morsel `k`'s fused compute burst.
    pub fn add_instr(&mut self, k: usize, instructions: f64) {
        self.acct.instr[k] += instructions;
    }

    /// The memory profile of morsel `k`'s fused compute burst.
    pub fn mem_mut(&mut self, k: usize) -> &mut MemProfile {
        &mut self.acct.mem[k]
    }

    /// Workspace available to an operator wanting `want` bytes, sharing
    /// the grant proportionally; returns bytes to spill (0 if it fits).
    /// Same arithmetic as the volcano executor.
    pub fn spill_share(&mut self, want: u64) -> u64 {
        if want == 0 || self.desired == 0 {
            return 0;
        }
        let share = (self.grant as f64 * want as f64 / self.desired as f64) as u64;
        if want > share {
            let spill = want - share;
            self.spilled += spill;
            spill
        } else {
            0
        }
    }

    /// Records extra spill traffic (probe-side grace-join partitions)
    /// not produced by [`spill_share`].
    ///
    /// [`spill_share`]: FinalizeCtx::spill_share
    pub fn add_spilled(&mut self, bytes: u64) {
        self.spilled += bytes;
    }

    /// A fresh transient memory region (hash table, sort run).
    pub fn fresh_region(&mut self) -> Region {
        self.next_region += 1;
        Region::new(self.next_region)
    }

    /// Splits `bytes` of spill I/O into claimable chunk morsels (volcano's
    /// per-worker spill granularity).
    fn spill_chunks(&self, bytes: u64, write: bool) -> Vec<DemandTrace> {
        if bytes == 0 {
            return Vec::new();
        }
        let chunks = (bytes / (8 << 20)).clamp(self.dop as u64, 256) as usize;
        let per = bytes / chunks as u64;
        let rem = bytes - per * chunks as u64;
        (0..chunks)
            .filter_map(|i| {
                let b = per + if i == 0 { rem } else { 0 };
                if b == 0 {
                    return None;
                }
                let item = if write {
                    TraceItem::SpillWrite { bytes: b }
                } else {
                    TraceItem::SpillRead { bytes: b }
                };
                Some(DemandTrace { items: vec![item] })
            })
            .collect()
    }

    /// Appends spill-write chunks as extra morsels of the current stage
    /// (aggregate/sort run writes overlap the pipeline's compute).
    pub fn extra_spill_write(&mut self, bytes: u64) {
        let chunks = self.spill_chunks(bytes, true);
        self.acct.extra.extend(chunks);
    }

    /// Appends a barrier stage containing only spill-write chunks (the
    /// grace-join pass-1 flush that must finish before probing).
    pub fn post_spill_write(&mut self, bytes: u64) {
        let morsels = self.spill_chunks(bytes, true);
        if !morsels.is_empty() {
            let partitions = self.dop;
            self.acct.post.push(MorselStage {
                partitions,
                morsels,
            });
        }
    }

    /// Appends a barrier stage that reads `bytes` of spilled workspace
    /// back and replays `instructions` of merge/rebuild compute with the
    /// given memory behaviour, split across the partitions.
    pub fn post_spill_read(&mut self, bytes: u64, instructions: f64, mem: MemProfile) {
        let mut morsels = self.spill_chunks(bytes, false);
        let total = instructions.max(0.0) as u64;
        if total > 0 || !mem.is_empty() {
            let n = self.dop.max(1);
            let per_mem = scale_profile(&mem, 1.0 / n as f64);
            for _ in 0..n {
                morsels.push(DemandTrace {
                    items: vec![TraceItem::Compute {
                        instructions: total / n as u64,
                        mem: per_mem.clone(),
                    }],
                });
            }
        }
        if !morsels.is_empty() {
            let partitions = self.dop;
            self.acct.post.push(MorselStage {
                partitions,
                morsels,
            });
        }
    }

    fn begin_pipeline(&mut self, morsels: usize) {
        self.acct = PipelineAcct {
            morsels,
            instr: vec![0.0; morsels],
            mem: vec![MemProfile::new(); morsels],
            lead_io: vec![Vec::new(); morsels],
            extra: Vec::new(),
            post: Vec::new(),
        };
    }

    /// Drains the pipeline accounting into stages: the main morsel stage
    /// (leading page runs + one fused compute per morsel, plus any extra
    /// spill-write morsels) followed by barrier stages.
    fn take_stages(&mut self) -> Vec<MorselStage> {
        let acct = std::mem::take(&mut self.acct);
        let mut morsels = Vec::new();
        for (k, io) in acct.lead_io.into_iter().enumerate() {
            let mut items = io;
            let instr = acct.instr[k];
            let mem = acct.mem[k].clone();
            if instr > 0.0 || !mem.is_empty() {
                items.push(TraceItem::Compute {
                    instructions: instr.max(0.0) as u64,
                    mem,
                });
            }
            if !items.is_empty() {
                morsels.push(DemandTrace { items });
            }
        }
        morsels.extend(acct.extra);
        let mut out = Vec::new();
        if !morsels.is_empty() {
            out.push(MorselStage {
                partitions: self.dop,
                morsels,
            });
        }
        out.extend(acct.post);
        out
    }

    /// Distributes a source's total demand across morsels proportionally
    /// to their logical row counts, slicing each page run contiguously.
    fn source_split(
        &mut self,
        n_src: &[usize],
        instr_total: f64,
        mem: &MemProfile,
        runs: &[(u64, u64)],
    ) {
        let total: usize = n_src.iter().sum();
        for (k, &n) in n_src.iter().enumerate() {
            let f = if total == 0 {
                if k == 0 {
                    1.0
                } else {
                    continue;
                }
            } else if n == 0 {
                continue;
            } else {
                n as f64 / total as f64
            };
            self.acct.instr[k] += instr_total * f;
            add_scaled(&mut self.acct.mem[k], mem, f);
        }
        for &(start, pages) in runs {
            if pages == 0 {
                continue;
            }
            if total == 0 {
                self.acct.lead_io[0].push(TraceItem::PageRun {
                    start,
                    pages,
                    write: false,
                });
                continue;
            }
            let mut cum: u64 = 0;
            for (k, &n) in n_src.iter().enumerate() {
                let lo = pages * cum / total as u64;
                cum += n as u64;
                let hi = pages * cum / total as u64;
                if hi > lo {
                    self.acct.lead_io[k].push(TraceItem::PageRun {
                        start: start + lo,
                        pages: hi - lo,
                        write: false,
                    });
                }
            }
        }
    }
}

/// Adds `src`'s patterns to `dst` scaled by `f` (same rounding as the
/// volcano executor's `scale_profile`).
fn add_scaled(dst: &mut MemProfile, src: &MemProfile, f: f64) {
    for p in src.patterns() {
        match *p {
            AccessPattern::Stream { region, bytes } => {
                dst.stream(region, (bytes as f64 * f) as u64);
            }
            AccessPattern::Random {
                region,
                footprint,
                count,
            } => {
                dst.random(region, footprint, ((count as f64 * f) as u64).max(1));
            }
        }
    }
}

/// How many morsels a pipeline over `modeled_rows` paper-scale rows is
/// split into at degree of parallelism `dop`: roughly one per
/// [`MORSEL_ROWS`], at least two per partition for load balance, but never
/// finer than quarter-morsels and never more than 192.
fn morsel_count(modeled_rows: f64, dop: usize) -> usize {
    let by_size = (modeled_rows / MORSEL_ROWS).ceil() as usize;
    let quarter = (modeled_rows / (MORSEL_ROWS / 4.0)).ceil() as usize;
    by_size.max(2 * dop).min(quarter.max(1)).clamp(1, 192)
}

/// The sizes of `m` contiguous chunks of near-equal size over `total`
/// rows: chunk `k` gets `total / m` rows plus one of the remainder when
/// `k < total % m`.
fn chunk_sizes(total: usize, m: usize) -> impl Iterator<Item = usize> {
    (0..m).map(move |k| total / m + usize::from(k < total % m))
}

/// Splits `rows` into exactly `m` contiguous chunks of [`chunk_sizes`].
fn split_chunks(rows: Vec<Row>, m: usize) -> Vec<Vec<Row>> {
    let mut rows = rows.into_iter();
    chunk_sizes(rows.len(), m)
        .map(|n| rows.by_ref().take(n).collect())
        .collect()
}

/// Cuts a planned columnstore scan of `arity` columns into `m` morsel
/// batches of [`chunk_sizes`], decoding each column's segments straight
/// into the morsels' typed vectors. Yields the same batches as
/// `Batch::from_rows` over [`split_chunks`] of `scan_rows`.
fn cs_batches(scan: &LiveScan<'_>, arity: usize, m: usize) -> Vec<Batch> {
    let sizes: Vec<usize> = chunk_sizes(scan.rows(), m).collect();
    // Column `c`'s vectors, one per morsel.
    let mut cols: Vec<std::vec::IntoIter<ColumnVector>> = (0..arity)
        .map(|c| {
            let mut morsels: Vec<ColumnBuilder> = sizes
                .iter()
                .map(|&n| ColumnBuilder::with_capacity(n))
                .collect();
            let (mut k, mut left) = (0, sizes[0]);
            scan.for_each(c, |v| {
                while left == 0 {
                    k += 1;
                    left = sizes[k];
                }
                morsels[k].push(v.clone());
                left -= 1;
            });
            let done: Vec<_> = morsels.into_iter().map(ColumnBuilder::finish).collect();
            done.into_iter()
        })
        .collect();
    sizes
        .iter()
        .map(|&n| {
            let morsel: Vec<ColumnVector> = cols
                .iter_mut()
                .map(|c| c.next().expect("m vectors"))
                .collect();
            match n {
                0 => Batch::empty(),
                _ => Batch::from_columns(morsel),
            }
        })
        .collect()
}

/// A pipeline source: where the logical rows come from and what
/// paper-scale I/O + compute reading them costs.
#[derive(Debug)]
enum PSource {
    /// Heap (rowstore) scan; filter/projection hoisted into the chain.
    Seq {
        table: TableId,
        filter: Option<Expr>,
    },
    /// Columnstore scan with segment elimination.
    Cs {
        table: TableId,
        filter: Option<Expr>,
        elim: Option<(usize, Option<Value>, Option<Value>)>,
        project: Option<Vec<usize>>,
    },
    /// Output buffer of an upstream pipeline breaker (free to re-read:
    /// the intermediate is in memory, like the volcano path).
    Buffer(Rc<RefCell<Vec<Row>>>),
}

impl PSource {
    /// Cuts the logical rows (pre-filter for scans, exactly as the volcano
    /// executor reads them) into morsel batches, as many as
    /// [`morsel_count`] gives for the source's modeled rows at `dop`.
    fn morsels(&self, db: &Database, dop: usize) -> Vec<Batch> {
        match self {
            PSource::Seq { table, .. } => {
                let t = db.table(*table);
                let m = morsel_count(t.layout.modeled_rows() as f64, dop);
                let arity = t.heap.schema().len();
                let mut rows = t.heap.iter().map(|(_, r)| r);
                chunk_sizes(t.heap.len(), m)
                    .map(|n| {
                        Batch::from_row_iter(
                            rows.by_ref().take(n).map(|r| r.iter().cloned()),
                            n,
                            arity,
                        )
                    })
                    .collect()
            }
            PSource::Cs { table, elim, .. } => {
                let t = db.table(*table);
                let cs = t.columnstore.as_ref().unwrap_or_else(|| {
                    panic!("columnstore scan on {} without columnstore", t.name)
                });
                let (elim_arg, frac) = cs_elim(db, *table, elim.as_ref());
                let m = morsel_count(t.layout.modeled_rows() as f64 * frac, dop);
                let scan = cs.store.live_scan(elim_arg);
                cs_batches(&scan, cs.store.schema().len(), m)
            }
            PSource::Buffer(buf) => {
                let rows = std::mem::take(&mut *buf.borrow_mut());
                let m = morsel_count(rows.len() as f64 * db.row_scale, dop);
                split_chunks(rows, m)
                    .into_iter()
                    .map(Batch::from_rows)
                    .collect()
            }
        }
    }

    /// Writes the source's per-morsel demand (page runs + scan compute)
    /// given the logical rows each morsel received.
    fn account(&self, db: &Database, n_src: &[usize], fin: &mut FinalizeCtx<'_>) {
        match self {
            PSource::Buffer(_) => {}
            PSource::Seq { table, filter } => {
                let t = db.table(*table);
                let modeled_rows = t.layout.modeled_rows() as f64;
                let expr_nodes = filter.as_ref().map_or(0, Expr::node_count);
                let instr =
                    modeled_rows * (db.cost.scan_row + expr_nodes * db.cost.expr_node) as f64;
                let mut mem = MemProfile::new();
                t.layout.scan_mem(&mut mem, 1.0);
                mem.random(
                    db.batch_region(),
                    db.cost.batch_footprint_bytes,
                    (modeled_rows as u64).max(1),
                );
                fin.source_split(n_src, instr, &mem, &[t.layout.scan_run()]);
            }
            PSource::Cs {
                table,
                filter,
                elim,
                project,
            } => {
                let t = db.table(*table);
                let cs = t.columnstore.as_ref().expect("checked in materialize");
                let (_, frac) = cs_elim(db, *table, elim.as_ref());
                let schema_len = t.heap.schema().len();
                let cols: Vec<usize> = match project {
                    Some(p) => {
                        let mut c = p.clone();
                        if let Some(f) = filter {
                            collect_cols(f, &mut c);
                        }
                        if let Some((ec, _, _)) = elim {
                            c.push(*ec);
                        }
                        c.sort_unstable();
                        c.dedup();
                        c
                    }
                    None => (0..schema_len).collect(),
                };
                let modeled_rows = t.layout.modeled_rows() as f64 * frac;
                let expr_nodes = filter.as_ref().map_or(0, Expr::node_count);
                let instr = modeled_rows
                    * (cols.len() as u64 * db.cost.columnstore_row_per_col
                        + expr_nodes * db.cost.expr_node) as f64;
                let mut mem = MemProfile::new();
                let mut runs = Vec::with_capacity(cols.len());
                for &c in &cols {
                    cs.layout.column_scan_mem(&mut mem, c, frac);
                    runs.push(cs.layout.column_scan_run(c, frac));
                }
                mem.random(
                    db.batch_region(),
                    db.cost.batch_footprint_bytes,
                    ((modeled_rows as u64) * db.cost.batch_accesses_per_row).max(1),
                );
                fin.source_split(n_src, instr, &mem, &runs);
            }
        }
    }
}

/// Borrowed segment-elimination predicate: column index plus optional
/// low/high bounds.
type ElimBounds<'e> = Option<(usize, Option<&'e Value>, Option<&'e Value>)>;

/// Segment-elimination argument and surviving fraction for a columnstore
/// scan (volcano's exact arithmetic).
fn cs_elim<'e>(
    db: &Database,
    table: TableId,
    elim: Option<&'e (usize, Option<Value>, Option<Value>)>,
) -> (ElimBounds<'e>, f64) {
    let t = db.table(table);
    let cs = t.columnstore.as_ref().expect("columnstore present");
    match elim {
        Some((c, lo, hi)) => {
            let total = cs.store.groups().len().max(1);
            let surviving = cs
                .store
                .groups()
                .iter()
                .filter(|g| g.segment(*c).overlaps(lo.as_ref(), hi.as_ref()))
                .count();
            (
                Some((*c, lo.as_ref(), hi.as_ref())),
                surviving as f64 / total as f64,
            )
        }
        None => (None, 1.0),
    }
}

/// One push pipeline: a source feeding a chain of operators whose last
/// element is a sink (pipeline breaker or result collector).
#[derive(Debug)]
struct Pipeline {
    source: PSource,
    ops: Vec<Box<dyn PhysicalOperator>>,
}

/// Executes a physical plan through the push pipelines, or returns `None`
/// when the plan uses operators the push path does not cover (nested-loop
/// joins, index-range scans) and the caller should fall back to
/// [`crate::exec::execute`].
///
/// The returned [`QueryExecution`] carries the same logical rows the
/// volcano path would produce (byte-identical, including order) with
/// `pipelines` populated and `stages` empty.
pub fn execute_push(db: &Database, plan: &PhysPlan) -> Option<QueryExecution> {
    if !push_supported(&plan.root) {
        return None;
    }
    let dop = plan.dop.max(1);
    let mut builder = PipelineBuilder {
        pipelines: Vec::new(),
    };
    let (source, mut ops) = builder.decompose(&plan.root);
    // A breaker at the root already materialized the result; otherwise a
    // collector sink terminates the final pipeline.
    let direct: Option<Rc<RefCell<Vec<Row>>>> = match (&source, ops.is_empty()) {
        (PSource::Buffer(buf), true) => Some(buf.clone()),
        _ => None,
    };
    if direct.is_none() {
        ops.push(Box::new(CollectSink { rows: Vec::new() }));
        builder.pipelines.push(Pipeline { source, ops });
    }

    let mut fin = FinalizeCtx {
        db,
        dop,
        grant: plan.memory_grant,
        desired: plan.desired_memory.max(1),
        spilled: 0,
        next_region: TRANSIENT_REGION_BASE,
        acct: PipelineAcct::default(),
    };
    let mut stages: Vec<MorselStage> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for pipeline in &mut builder.pipelines {
        // Phase 1: logical pass, single morsel stream in order.
        let batches = pipeline.source.morsels(db, dop);
        let m = batches.len();
        let n_src: Vec<usize> = batches.iter().map(Batch::num_rows).collect();
        for (k, mut batch) in batches.into_iter().enumerate() {
            for op in &mut pipeline.ops {
                match op.push(k % dop, batch) {
                    PollPush::Continue(b) | PollPush::Finished(b) => batch = b,
                    PollPush::NeedsMore => break,
                }
            }
        }
        // Phase 2: demand synthesis now that totals are known.
        fin.begin_pipeline(m);
        pipeline.source.account(db, &n_src, &mut fin);
        for op in &mut pipeline.ops {
            if let Some(out) = op.finalize(&mut fin) {
                rows = out;
            }
        }
        stages.extend(fin.take_stages());
    }
    if let Some(buf) = direct {
        rows = std::mem::take(&mut *buf.borrow_mut());
    }
    if dop > 1 {
        // Parallel startup cost, one burst per partition, ahead of the
        // first stage's work queue.
        let startup: Vec<DemandTrace> = (0..dop)
            .map(|_| DemandTrace {
                items: vec![TraceItem::Compute {
                    instructions: db.cost.parallel_startup,
                    mem: MemProfile::new(),
                }],
            })
            .collect();
        if let Some(first) = stages.first_mut() {
            first.morsels.splice(0..0, startup);
        } else {
            stages.push(MorselStage {
                partitions: dop,
                morsels: startup,
            });
        }
    }
    Some(QueryExecution {
        rows,
        stages: Vec::new(),
        pipelines: stages,
        dop,
        grant: plan.memory_grant,
        desired: plan.desired_memory,
        spilled_bytes: fin.spilled,
    })
}

/// Whether the push path covers every operator of a plan.
fn push_supported(n: &PhysNode) -> bool {
    match n {
        PhysNode::SeqScan { .. } | PhysNode::ColumnstoreScan { .. } => true,
        PhysNode::IndexRange { .. } | PhysNode::NlJoin { .. } => false,
        PhysNode::HashJoin { probe, build, .. } => push_supported(probe) && push_supported(build),
        PhysNode::HashAgg { input, .. }
        | PhysNode::StreamAgg { input, .. }
        | PhysNode::Sort { input, .. }
        | PhysNode::Top { input, .. }
        | PhysNode::Project { input, .. }
        | PhysNode::Filter { input, .. } => push_supported(input),
    }
}

struct PipelineBuilder {
    pipelines: Vec<Pipeline>,
}

impl PipelineBuilder {
    /// Decomposes a subtree into the (source, operator-chain) pair that
    /// streams its output, emitting complete pipelines for every breaker
    /// encountered (build sides first, matching volcano stage order).
    fn decompose(&mut self, node: &PhysNode) -> (PSource, Vec<Box<dyn PhysicalOperator>>) {
        match node {
            PhysNode::SeqScan {
                table,
                filter,
                project,
                ..
            } => {
                let mut ops: Vec<Box<dyn PhysicalOperator>> = Vec::new();
                if let Some(f) = filter {
                    // The scan formula already charges the filter's
                    // expression nodes; the hoisted operator is free.
                    ops.push(Box::new(FilterOp::new(f.clone(), false)));
                }
                if let Some(p) = project {
                    ops.push(Box::new(ProjectCols { cols: p.clone() }));
                }
                (
                    PSource::Seq {
                        table: *table,
                        filter: filter.clone(),
                    },
                    ops,
                )
            }
            PhysNode::ColumnstoreScan {
                table,
                filter,
                elim,
                project,
                ..
            } => {
                let mut ops: Vec<Box<dyn PhysicalOperator>> = Vec::new();
                if let Some(f) = filter {
                    ops.push(Box::new(FilterOp::new(f.clone(), false)));
                }
                if let Some(p) = project {
                    ops.push(Box::new(ProjectCols { cols: p.clone() }));
                }
                (
                    PSource::Cs {
                        table: *table,
                        filter: filter.clone(),
                        elim: elim.clone(),
                        project: project.clone(),
                    },
                    ops,
                )
            }
            PhysNode::HashJoin {
                probe,
                build,
                probe_keys,
                build_keys,
                kind,
                swapped,
                ..
            } => {
                let (bsrc, mut bops) = self.decompose(build);
                let state = Rc::new(RefCell::new(JoinState::default()));
                bops.push(Box::new(BuildSink {
                    keys: build_keys.clone(),
                    state: state.clone(),
                    cols: Vec::new(),
                    inputs: Vec::new(),
                }));
                self.pipelines.push(Pipeline {
                    source: bsrc,
                    ops: bops,
                });
                let (psrc, mut pops) = self.decompose(probe);
                pops.push(Box::new(HashProbe {
                    state,
                    probe_keys: probe_keys.clone(),
                    kind: *kind,
                    swapped: *swapped,
                    inputs: Vec::new(),
                    key_scratch: Vec::new(),
                }));
                (psrc, pops)
            }
            PhysNode::HashAgg {
                input,
                group_by,
                aggs,
                ..
            } => {
                let (src, mut ops) = self.decompose(input);
                let out = Rc::new(RefCell::new(Vec::new()));
                ops.push(Box::new(AggSink::new(
                    group_by.clone(),
                    aggs.clone(),
                    out.clone(),
                )));
                self.pipelines.push(Pipeline { source: src, ops });
                (PSource::Buffer(out), Vec::new())
            }
            PhysNode::StreamAgg { input, aggs } => {
                let (src, mut ops) = self.decompose(input);
                let out = Rc::new(RefCell::new(Vec::new()));
                ops.push(Box::new(StreamAggSink::new(aggs.clone(), out.clone())));
                self.pipelines.push(Pipeline { source: src, ops });
                (PSource::Buffer(out), Vec::new())
            }
            PhysNode::Sort { input, keys, .. } => {
                let (src, mut ops) = self.decompose(input);
                let out = Rc::new(RefCell::new(Vec::new()));
                ops.push(Box::new(SortSink {
                    keys: keys.clone(),
                    rows: Vec::new(),
                    inputs: Vec::new(),
                    out: out.clone(),
                }));
                self.pipelines.push(Pipeline { source: src, ops });
                (PSource::Buffer(out), Vec::new())
            }
            PhysNode::Top { input, n } => {
                let (src, mut ops) = self.decompose(input);
                ops.push(Box::new(TopGate { remaining: *n }));
                (src, ops)
            }
            PhysNode::Project { input, exprs } => {
                let (src, mut ops) = self.decompose(input);
                ops.push(Box::new(ProjectExprs::new(exprs.clone())));
                (src, ops)
            }
            PhysNode::Filter { input, pred } => {
                let (src, mut ops) = self.decompose(input);
                ops.push(Box::new(FilterOp::new(pred.clone(), true)));
                (src, ops)
            }
            PhysNode::IndexRange { .. } | PhysNode::NlJoin { .. } => {
                unreachable!("push_supported() rejects these plans")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass-through operators.
// ---------------------------------------------------------------------------

/// Vectorized filter; `charge` is false when hoisted from a scan whose
/// source formula already prices the predicate.
struct FilterOp {
    pred: Expr,
    compiled: Box<dyn PhysicalExpr>,
    charge: bool,
    inputs: Vec<u64>,
}

impl FilterOp {
    fn new(pred: Expr, charge: bool) -> Self {
        let compiled = compile(&pred);
        FilterOp {
            pred,
            compiled,
            charge,
            inputs: Vec::new(),
        }
    }
}

impl fmt::Debug for FilterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FilterOp({})", self.pred)
    }
}

impl PhysicalOperator for FilterOp {
    fn push(&mut self, _partition: usize, mut batch: Batch) -> PollPush {
        let n = batch.num_rows() as u64;
        self.inputs.push(n);
        if n == 0 {
            return PollPush::Continue(batch);
        }
        let keep = filter_mask(self.compiled.as_ref(), &batch);
        batch.select(keep);
        PollPush::Continue(batch)
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        if self.charge {
            let nodes = self.pred.node_count();
            for (k, &n) in self.inputs.iter().enumerate() {
                if n > 0 {
                    fin.add_instr(k, fin.modeled(n) * (nodes * fin.db.cost.expr_node) as f64);
                }
            }
        }
        None
    }
}

/// Column projection hoisted from a scan; free (the scan's per-column
/// pricing covers it).
#[derive(Debug)]
struct ProjectCols {
    cols: Vec<usize>,
}

impl PhysicalOperator for ProjectCols {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        if batch.num_rows() == 0 {
            return PollPush::Continue(Batch::empty());
        }
        PollPush::Continue(batch.project(&self.cols))
    }

    fn finalize(&mut self, _fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        None
    }
}

/// Expression projection ([`PhysNode::Project`]); charges expression-node
/// cost per input row like the volcano path.
struct ProjectExprs {
    exprs: Vec<Expr>,
    compiled: Vec<Box<dyn PhysicalExpr>>,
    inputs: Vec<u64>,
}

impl ProjectExprs {
    fn new(exprs: Vec<Expr>) -> Self {
        let compiled = exprs.iter().map(|e| compile(e)).collect();
        ProjectExprs {
            exprs,
            compiled,
            inputs: Vec::new(),
        }
    }
}

impl fmt::Debug for ProjectExprs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProjectExprs({} exprs)", self.exprs.len())
    }
}

impl PhysicalOperator for ProjectExprs {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        let n = batch.num_rows() as u64;
        self.inputs.push(n);
        if n == 0 {
            return PollPush::Continue(Batch::empty());
        }
        let cols = self.compiled.iter().map(|e| e.evaluate(&batch)).collect();
        PollPush::Continue(Batch::from_columns(cols))
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        let nodes: u64 = self.exprs.iter().map(Expr::node_count).sum();
        for (k, &n) in self.inputs.iter().enumerate() {
            if n > 0 {
                fin.add_instr(k, fin.modeled(n) * (nodes * fin.db.cost.expr_node) as f64);
            }
        }
        None
    }
}

/// `Top` gate: passes the first `n` rows of the stream and empties the
/// rest. Free, like the volcano path's truncate.
#[derive(Debug)]
struct TopGate {
    remaining: usize,
}

impl PhysicalOperator for TopGate {
    fn push(&mut self, _partition: usize, mut batch: Batch) -> PollPush {
        let n = batch.num_rows();
        if n == 0 {
            return PollPush::Continue(Batch::empty());
        }
        if self.remaining == 0 {
            return PollPush::Finished(Batch::empty());
        }
        if n > self.remaining {
            batch.select((0..self.remaining as u32).collect());
            self.remaining = 0;
            return PollPush::Finished(batch);
        }
        self.remaining -= n;
        PollPush::Continue(batch)
    }

    fn finalize(&mut self, _fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        None
    }
}

// ---------------------------------------------------------------------------
// Hash join.
// ---------------------------------------------------------------------------

/// Shared state between a join's build-side sink and its probe operator.
#[derive(Debug, Default)]
struct JoinState {
    /// The build rows in arrival order, as unmasked columns (no columns
    /// when the build side is empty).
    build: Batch,
    ht: FxHashMap<Vec<KeyPart>, Vec<u32>>,
    build_modeled: f64,
    width: u64,
    ht_bytes: u64,
    spill: u64,
    ht_region: Option<Region>,
}

/// Build-side sink: appends the live rows of each batch, column by column,
/// in arrival order (= volcano's build row order) and erects the hash
/// table at finalize.
#[derive(Debug)]
struct BuildSink {
    keys: Vec<usize>,
    state: Rc<RefCell<JoinState>>,
    /// One builder per column, created by the first non-empty batch.
    cols: Vec<ColumnBuilder>,
    inputs: Vec<u64>,
}

impl PhysicalOperator for BuildSink {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        let n = batch.num_rows();
        self.inputs.push(n as u64);
        if n > 0 {
            if self.cols.is_empty() {
                self.cols = (0..batch.cols.len())
                    .map(|_| ColumnBuilder::with_capacity(n))
                    .collect();
            }
            for (b, col) in self.cols.iter_mut().zip(&batch.cols) {
                for i in 0..n {
                    b.push(col.get(batch.live_index(i)));
                }
            }
        }
        PollPush::NeedsMore
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        let mut st = self.state.borrow_mut();
        let cols = std::mem::take(&mut self.cols);
        let arity = cols.len();
        st.build = Batch::from_columns(cols.into_iter().map(ColumnBuilder::finish).collect());
        let mut ht: FxHashMap<Vec<KeyPart>, Vec<u32>> = FxHashMap::default();
        let mut key = Vec::with_capacity(self.keys.len());
        for i in 0..st.build.num_rows() {
            batch_key_sig_into(&st.build, i, &self.keys, &mut key);
            match ht.get_mut(&key) {
                Some(rows) => rows.push(i as u32),
                None => {
                    ht.insert(key.clone(), vec![i as u32]);
                }
            }
        }
        st.ht = ht;
        let total: u64 = self.inputs.iter().sum();
        st.build_modeled = fin.modeled(total);
        st.width = if total == 0 {
            8
        } else {
            workspace_width(arity)
        };
        st.ht_bytes =
            (st.build_modeled * (fin.db.cost.hash_bytes_per_row + st.width) as f64) as u64;
        st.spill = fin.spill_share(st.ht_bytes);
        let region = fin.fresh_region();
        st.ht_region = Some(region);
        let (ht_bytes, spill) = (st.ht_bytes, st.spill);
        let batch_region = fin.db.batch_region();
        let batch_fp = fin.db.cost.batch_footprint_bytes;
        let build_row_cost = fin.db.cost.hash_build_row as f64;
        drop(st);
        for (k, &n) in self.inputs.iter().enumerate() {
            if n == 0 && !(total == 0 && k == 0) {
                continue;
            }
            let nm = fin.modeled(n);
            fin.add_instr(k, nm * build_row_cost);
            let mem = fin.mem_mut(k);
            mem.random(region, ht_bytes.max(4096), nm as u64);
            mem.random(batch_region, batch_fp, ((nm as u64) * 2).max(1));
        }
        if spill > 0 {
            // Grace-join pass 1: overflowed partitions flush before any
            // probing starts.
            fin.post_spill_write(spill);
        }
        None
    }
}

/// Probe operator: streams probe morsels against the finished build hash
/// table, reproducing the volcano executor's join semantics exactly
/// (including the `swapped` column-order restoration for inner joins).
/// Keys are read from the batch columns and output columns are gathered
/// from the probe batch and the build side; no row is materialized.
#[derive(Debug)]
struct HashProbe {
    state: Rc<RefCell<JoinState>>,
    probe_keys: Vec<usize>,
    kind: JoinKind,
    swapped: bool,
    inputs: Vec<u64>,
    /// Reusable probe key (probe rows never insert into the table).
    key_scratch: Vec<KeyPart>,
}

/// Build-side index of a LeftOuter probe row without a match.
const NO_MATCH: u32 = u32::MAX;

impl PhysicalOperator for HashProbe {
    fn push(&mut self, _partition: usize, mut batch: Batch) -> PollPush {
        let n = batch.num_rows();
        self.inputs.push(n as u64);
        if n == 0 {
            return PollPush::Continue(Batch::empty());
        }
        let st = self.state.borrow();
        // Semi/anti joins keep live positions; inner and outer joins pair
        // a physical probe row with a build row.
        let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
        for i in 0..n {
            let phys = batch.live_index(i);
            batch_key_sig_into(&batch, phys, &self.probe_keys, &mut self.key_scratch);
            let matches = st.ht.get(&self.key_scratch);
            match (self.kind, matches) {
                (JoinKind::Inner | JoinKind::LeftOuter, Some(ms)) => {
                    probe_idx.extend(std::iter::repeat_n(phys as u32, ms.len()));
                    build_idx.extend_from_slice(ms);
                }
                (JoinKind::LeftOuter, None) => {
                    probe_idx.push(phys as u32);
                    build_idx.push(NO_MATCH);
                }
                (JoinKind::Semi, Some(_)) | (JoinKind::Anti, None) => probe_idx.push(i as u32),
                _ => {}
            }
        }
        if probe_idx.is_empty() {
            return PollPush::Continue(Batch::empty());
        }
        if matches!(self.kind, JoinKind::Semi | JoinKind::Anti) {
            batch.select(probe_idx);
            return PollPush::Continue(batch);
        }
        let probe = batch.cols.iter().map(|c| c.gather(&probe_idx));
        let build = st.build.cols.iter().map(|c| gather_or_null(c, &build_idx));
        let cols = if self.swapped && self.kind == JoinKind::Inner {
            build.chain(probe).collect()
        } else {
            probe.chain(build).collect()
        };
        PollPush::Continue(Batch::from_columns(cols))
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        let st = self.state.borrow();
        let (build_modeled, ht_bytes, spill, width) =
            (st.build_modeled, st.ht_bytes, st.spill, st.width);
        let region = st.ht_region.expect("build finalized before probe");
        drop(st);
        let total: u64 = self.inputs.iter().sum();
        let probe_cost = fin.db.cost.hash_probe_row as f64;
        let exchange = fin.db.cost.exchange_row as f64;
        let batch_region = fin.db.batch_region();
        let batch_fp = fin.db.cost.batch_footprint_bytes;
        for (k, &n) in self.inputs.iter().enumerate() {
            let f = if total == 0 {
                if k == 0 {
                    1.0
                } else {
                    continue;
                }
            } else if n == 0 {
                continue;
            } else {
                n as f64 / total as f64
            };
            let nm = fin.modeled(n);
            let mut instr = nm * probe_cost;
            if fin.dop > 1 {
                instr += (nm + build_modeled * f) * exchange;
            }
            fin.add_instr(k, instr);
            let mem = fin.mem_mut(k);
            mem.random(region, ht_bytes.max(4096), (nm * 0.6) as u64);
            mem.random(batch_region, batch_fp, ((nm as u64) * 3).max(1));
        }
        if spill > 0 {
            // Grace-join pass 2: spill the matching probe partitions, then
            // read both sides back and re-build behind a barrier.
            let probe_modeled = fin.modeled(total);
            let probe_bytes = (probe_modeled * width as f64 * 0.5) as u64;
            let probe_spill = (probe_bytes as f64 * (spill as f64 / ht_bytes.max(1) as f64)) as u64;
            fin.extra_spill_write(probe_spill);
            fin.add_spilled(probe_spill);
            let spilled_rows = build_modeled * (spill as f64 / ht_bytes.max(1) as f64);
            let mut mem = MemProfile::new();
            mem.random(region, spill.max(4096), spilled_rows as u64);
            fin.post_spill_read(
                spill + probe_spill,
                spilled_rows * fin.db.cost.hash_build_row as f64,
                mem,
            );
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Aggregation and sort sinks.
// ---------------------------------------------------------------------------

/// The entries of `col` at `idx`, with NULL for [`NO_MATCH`].
fn gather_or_null(col: &ColumnVector, idx: &[u32]) -> ColumnVector {
    if !idx.contains(&NO_MATCH) {
        return col.gather(idx);
    }
    let mut b = ColumnBuilder::with_capacity(idx.len());
    for &i in idx {
        b.push(if i == NO_MATCH {
            Value::Null
        } else {
            col.get(i as usize)
        });
    }
    b.finish()
}

/// Builds the hashable key of physical row `phys` straight from the
/// batch's column vectors (the column-wise equivalent of the volcano
/// executor's row `key_sig_into`), skipping row materialization.
fn batch_key_sig_into(batch: &Batch, phys: usize, cols: &[usize], out: &mut Vec<KeyPart>) {
    out.clear();
    out.extend(cols.iter().map(|&c| match &batch.cols[c] {
        ColumnVector::Int(v) => KeyPart::I(v[phys]),
        ColumnVector::Float(v) => KeyPart::F(v[phys].to_bits()),
        ColumnVector::Str(v) => KeyPart::S(v[phys].clone()),
        ColumnVector::Mixed(v) => match &v[phys] {
            Value::Int(i) => KeyPart::I(*i),
            Value::Str(st) => KeyPart::S(st.clone()),
            Value::Float(f) => KeyPart::F(f.to_bits()),
            Value::Null => KeyPart::N,
        },
    }));
}

/// Hash-aggregation sink: groups accumulate in push order (= volcano's
/// row order), so `into_values` iteration matches the volcano result
/// byte for byte.
struct AggSink {
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    compiled: Vec<Box<dyn PhysicalExpr>>,
    groups: FxHashMap<Vec<KeyPart>, (Row, Vec<AggAcc>)>,
    inputs: Vec<u64>,
    out: Rc<RefCell<Vec<Row>>>,
    /// Reusable lookup key; an owned key vector is only built when a row
    /// opens a new group.
    key_scratch: Vec<KeyPart>,
}

impl AggSink {
    fn new(group_by: Vec<usize>, aggs: Vec<AggSpec>, out: Rc<RefCell<Vec<Row>>>) -> Self {
        let compiled = aggs.iter().map(|a| compile(&a.expr)).collect();
        AggSink {
            group_by,
            aggs,
            compiled,
            groups: FxHashMap::default(),
            inputs: Vec::new(),
            out,
            key_scratch: Vec::new(),
        }
    }
}

impl fmt::Debug for AggSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AggSink(group_by {:?}, {} aggs)",
            self.group_by,
            self.aggs.len()
        )
    }
}

impl PhysicalOperator for AggSink {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        let n = batch.num_rows();
        self.inputs.push(n as u64);
        if n == 0 {
            return PollPush::NeedsMore;
        }
        // Vectorized aggregate inputs; group keys gathered column-wise
        // through a reusable key buffer (no per-row key or row
        // materialization on the group-hit path).
        let agg_vals: Vec<_> = self.compiled.iter().map(|e| e.eval(&batch)).collect();
        for i in 0..n {
            let phys = batch.live_index(i);
            batch_key_sig_into(&batch, phys, &self.group_by, &mut self.key_scratch);
            if !self.groups.contains_key(&self.key_scratch) {
                self.groups.insert(
                    self.key_scratch.clone(),
                    (
                        self.key_scratch.iter().map(KeyPart::to_value).collect(),
                        self.aggs.iter().map(|a| AggAcc::new(a.func)).collect(),
                    ),
                );
            }
            let entry = self
                .groups
                .get_mut(&self.key_scratch)
                .expect("group ensured");
            for (acc, vals) in entry.1.iter_mut().zip(&agg_vals) {
                acc.update_col(vals, i);
            }
        }
        PollPush::NeedsMore
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        let total: u64 = self.inputs.iter().sum();
        let groups_modeled = fin.modeled(self.groups.len() as u64);
        let width = workspace_width(self.group_by.len() + self.aggs.len());
        let ht_bytes = (groups_modeled * (fin.db.cost.hash_bytes_per_row + width) as f64) as u64;
        let spill = fin.spill_share(ht_bytes);
        let region = fin.fresh_region();
        let agg_nodes: u64 = self.aggs.iter().map(|a| a.expr.node_count()).sum();
        let row_cost = (fin.db.cost.agg_row + agg_nodes * fin.db.cost.expr_node) as f64;
        let batch_region = fin.db.batch_region();
        let batch_fp = fin.db.cost.batch_footprint_bytes;
        for (k, &n) in self.inputs.iter().enumerate() {
            if n == 0 && !(total == 0 && k == 0) {
                continue;
            }
            let nm = fin.modeled(n);
            fin.add_instr(k, nm * row_cost);
            let mem = fin.mem_mut(k);
            mem.random(region, ht_bytes.max(4096), (nm * 0.6) as u64);
            mem.random(batch_region, batch_fp, ((nm as u64) * 3).max(1));
        }
        if spill > 0 {
            // Run writes overlap the pipeline; the merge-back pass is a
            // barrier stage.
            fin.extra_spill_write(spill);
            let spilled_groups = groups_modeled * (spill as f64 / ht_bytes.max(1) as f64);
            fin.post_spill_read(
                spill,
                spilled_groups * fin.db.cost.agg_row as f64,
                MemProfile::new(),
            );
        }
        let rows: Vec<Row> = std::mem::take(&mut self.groups)
            .into_values()
            .map(|(mut key_vals, accs)| {
                key_vals.extend(accs.into_iter().map(AggAcc::finish));
                key_vals
            })
            .collect();
        *self.out.borrow_mut() = rows;
        None
    }
}

/// Scalar (ungrouped) aggregation sink.
struct StreamAggSink {
    aggs: Vec<AggSpec>,
    compiled: Vec<Box<dyn PhysicalExpr>>,
    accs: Vec<AggAcc>,
    inputs: Vec<u64>,
    out: Rc<RefCell<Vec<Row>>>,
}

impl StreamAggSink {
    fn new(aggs: Vec<AggSpec>, out: Rc<RefCell<Vec<Row>>>) -> Self {
        let compiled = aggs.iter().map(|a| compile(&a.expr)).collect();
        let accs = aggs.iter().map(|a| AggAcc::new(a.func)).collect();
        StreamAggSink {
            aggs,
            compiled,
            accs,
            inputs: Vec::new(),
            out,
        }
    }
}

impl fmt::Debug for StreamAggSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamAggSink({} aggs)", self.aggs.len())
    }
}

impl PhysicalOperator for StreamAggSink {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        let n = batch.num_rows();
        self.inputs.push(n as u64);
        if n == 0 {
            return PollPush::NeedsMore;
        }
        let agg_vals: Vec<_> = self.compiled.iter().map(|e| e.eval(&batch)).collect();
        for i in 0..n {
            for (acc, vals) in self.accs.iter_mut().zip(&agg_vals) {
                acc.update_col(vals, i);
            }
        }
        PollPush::NeedsMore
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        let agg_nodes: u64 = self.aggs.iter().map(|a| a.expr.node_count()).sum();
        let row_cost =
            fin.db.cost.agg_row as f64 * 0.4 + (agg_nodes * fin.db.cost.expr_node) as f64;
        for (k, &n) in self.inputs.iter().enumerate() {
            if n > 0 {
                fin.add_instr(k, fin.modeled(n) * row_cost);
            }
        }
        let accs = std::mem::take(&mut self.accs);
        *self.out.borrow_mut() = vec![accs.into_iter().map(AggAcc::finish).collect()];
        None
    }
}

/// Sort sink: accumulates rows in push order, sorts stably at finalize
/// with the volcano comparator.
#[derive(Debug)]
struct SortSink {
    keys: Vec<(usize, bool)>,
    rows: Vec<Row>,
    inputs: Vec<u64>,
    out: Rc<RefCell<Vec<Row>>>,
}

impl PhysicalOperator for SortSink {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        let n = batch.num_rows();
        self.inputs.push(n as u64);
        if n > 0 {
            self.rows.extend(batch.to_rows());
        }
        PollPush::NeedsMore
    }

    fn finalize(&mut self, fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        use dbsens_storage::value::cmp_values;
        use std::cmp::Ordering;
        let total: u64 = self.inputs.iter().sum();
        let modeled = fin.modeled(total).max(2.0);
        let width = self.rows.first().map_or(8, |r| workspace_width(r.len()));
        let sort_bytes = (modeled * (fin.db.cost.sort_bytes_per_row + width) as f64) as u64;
        let spill = fin.spill_share(sort_bytes);
        let region = fin.fresh_region();
        let instr_total = modeled * modeled.log2() * fin.db.cost.sort_row_log as f64;
        for (k, &n) in self.inputs.iter().enumerate() {
            let f = if total == 0 {
                if k == 0 {
                    1.0
                } else {
                    continue;
                }
            } else if n == 0 {
                continue;
            } else {
                n as f64 / total as f64
            };
            fin.add_instr(k, instr_total * f);
            fin.mem_mut(k)
                .random(region, sort_bytes.max(4096), (modeled * f) as u64);
        }
        if spill > 0 {
            // External merge sort: run writes overlap run generation; the
            // merge pass is a barrier stage.
            fin.extra_spill_write(spill);
            let spilled_rows = modeled * (spill as f64 / sort_bytes.max(1) as f64);
            fin.post_spill_read(
                spill,
                spilled_rows * fin.db.cost.sort_row_log as f64,
                MemProfile::new(),
            );
        }
        let mut rows = std::mem::take(&mut self.rows);
        let keys = self.keys.clone();
        rows.sort_by(|a, b| {
            for &(c, desc) in &keys {
                let ord = cmp_values(&a[c], &b[c]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        *self.out.borrow_mut() = rows;
        None
    }
}

/// Terminal sink of the final pipeline: collects the query's result rows.
#[derive(Debug)]
struct CollectSink {
    rows: Vec<Row>,
}

impl PhysicalOperator for CollectSink {
    fn push(&mut self, _partition: usize, batch: Batch) -> PollPush {
        if batch.num_rows() > 0 {
            self.rows.extend(batch.to_rows());
        }
        PollPush::NeedsMore
    }

    fn finalize(&mut self, _fin: &mut FinalizeCtx<'_>) -> Option<Vec<Row>> {
        Some(std::mem::take(&mut self.rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, rows_digest};
    use crate::expr::CmpOp;
    use crate::optimizer::{optimize, PlanContext};
    use crate::plan::{avg, count, sum, JoinKind, Logical};
    use dbsens_storage::schema::{ColType, Schema};

    fn setup() -> (Database, TableId, TableId) {
        let mut db = Database::new(50.0, 1 << 30);
        let fact_schema = Schema::new(&[
            ("id", ColType::Int),
            ("fk", ColType::Int),
            ("qty", ColType::Int),
            ("price", ColType::Float),
        ]);
        let fact_rows: Vec<Row> = (0..400)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 20),
                    Value::Int(i % 7),
                    Value::Float(i as f64 * 1.5),
                ]
            })
            .collect();
        let fact = db.create_table("fact", fact_schema, fact_rows);
        let dim_schema = Schema::new(&[("id", ColType::Int), ("name", ColType::Str(8))]);
        let dim_rows: Vec<Row> = (0..20)
            .map(|i| vec![Value::Int(i), Value::Str(format!("n{i}").into())])
            .collect();
        let dim = db.create_table("dim", dim_schema, dim_rows);
        (db, fact, dim)
    }

    fn ctx() -> PlanContext {
        PlanContext {
            maxdop: 4,
            grant_cap_bytes: 1 << 30,
            cost_threshold: 1e18,
            bufferpool_bytes: 1 << 30,
            db_bytes: 1 << 30,
        }
    }

    /// Runs `q` on both executors and asserts byte-identical rows.
    fn assert_parity(db: &Database, q: &Logical, c: &PlanContext) -> QueryExecution {
        let plan = optimize(db, q, c);
        let push = execute_push(db, &plan).expect("plan should be push-supported");
        let pull = execute(db, &plan);
        assert_eq!(
            rows_digest(&push.rows),
            rows_digest(&pull.rows),
            "push/pull row divergence: {} vs {} rows",
            push.rows.len(),
            pull.rows.len()
        );
        assert_eq!(push.rows, pull.rows);
        assert!(push.stages.is_empty());
        assert!(!push.pipelines.is_empty(), "no pipeline stages emitted");
        push
    }

    #[test]
    fn scan_filter_project_parity() {
        let (db, fact, _) = setup();
        let q = Logical::scan(
            fact,
            Some(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(10i64))),
            10.0,
        )
        .project(vec![Expr::Col(0), Expr::Col(2)]);
        let out = assert_parity(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 10);
        assert!(out.pipelines[0].total_items() > 0);
    }

    #[test]
    fn join_agg_sort_top_parity() {
        let (db, fact, dim) = setup();
        let q = Logical::scan(fact, None, 400.0)
            .join(
                Logical::scan(dim, None, 20.0),
                vec![1],
                vec![0],
                JoinKind::Inner,
                400.0,
            )
            .agg(vec![2], vec![count(), sum(0), avg(3)], 7.0)
            .sort(vec![(1, true)])
            .top(5);
        let out = assert_parity(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 5);
        // Build, probe+agg, sort, collect pipelines → at least 3 stages.
        assert!(out.pipelines.len() >= 3, "{} stages", out.pipelines.len());
    }

    #[test]
    fn semi_anti_outer_parity() {
        let (db, fact, dim) = setup();
        let dim_small = Logical::scan(
            dim,
            Some(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(5i64))),
            5.0,
        );
        for kind in [JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter] {
            let q = Logical::scan(fact, None, 400.0).join(
                dim_small.clone(),
                vec![1],
                vec![0],
                kind,
                100.0,
            );
            assert_parity(&db, &q, &ctx());
        }
    }

    #[test]
    fn scalar_agg_parity() {
        let (db, fact, _) = setup();
        let q = Logical::scan(fact, None, 400.0).agg(vec![], vec![avg(2), count()], 1.0);
        let out = assert_parity(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn columnstore_scan_parity() {
        let (mut db, fact, _) = setup();
        db.create_columnstore(fact, 64);
        let q = Logical::scan_project(
            fact,
            Some(Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::lit(300i64))),
            vec![0, 3],
            100.0,
        );
        let out = assert_parity(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 100);
    }

    #[test]
    fn results_invariant_across_dop() {
        let (db, fact, dim) = setup();
        let q = Logical::scan(fact, None, 400.0)
            .join(
                Logical::scan(dim, None, 20.0),
                vec![1],
                vec![0],
                JoinKind::Inner,
                400.0,
            )
            .agg(vec![2], vec![count(), sum(0)], 7.0);
        let mut digests = Vec::new();
        for dop in [1usize, 4, 16] {
            let mut c = ctx();
            c.maxdop = dop;
            c.cost_threshold = 0.0; // parallel whenever dop allows
            let plan = optimize(&db, &q, &c);
            let out = execute_push(&db, &plan).expect("push-supported");
            digests.push(rows_digest(&out.rows));
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    #[test]
    fn parallel_pipeline_has_claimable_morsels() {
        let (db, fact, _) = setup();
        let q = Logical::scan(fact, None, 400.0);
        let mut c = ctx();
        c.cost_threshold = 0.0;
        let plan = optimize(&db, &q, &c);
        let out = execute_push(&db, &plan).expect("push-supported");
        assert_eq!(out.dop, 4);
        let first = &out.pipelines[0];
        assert_eq!(first.partitions, 4);
        // dop startup bursts + at least one scan morsel (the table is far
        // below MORSEL_ROWS, so the quarter-morsel floor caps it at one).
        assert!(first.morsels.len() > 4, "{}", first.morsels.len());
    }

    #[test]
    fn insufficient_grant_spills_on_push_path() {
        let (db, fact, dim) = setup();
        let q = Logical::scan(fact, None, 400.0).join(
            Logical::scan(dim, None, 20.0),
            vec![1],
            vec![1],
            JoinKind::Inner,
            400.0,
        );
        let mut c = ctx();
        c.grant_cap_bytes = 1;
        let plan = optimize(&db, &q, &c);
        let push = execute_push(&db, &plan).expect("push-supported");
        let pull = execute(&db, &plan);
        assert_eq!(push.rows, pull.rows);
        assert!(push.spilled_bytes > 0);
        let has_spill = push
            .pipelines
            .iter()
            .flat_map(|s| &s.morsels)
            .flat_map(|m| &m.items)
            .any(|i| matches!(i, TraceItem::SpillWrite { .. }));
        assert!(has_spill);
    }

    #[test]
    fn split_chunks_is_contiguous_and_balanced() {
        for (total, m) in [(1000usize, 100usize), (9, 3), (7, 16), (0, 4), (5, 1)] {
            let rows: Vec<Row> = (0..total as i64).map(|i| vec![Value::Int(i)]).collect();
            let chunks = split_chunks(rows, m);
            assert_eq!(chunks.len(), m, "always exactly m chunks");
            let flat: Vec<i64> = chunks.iter().flatten().map(|r| r[0].as_int()).collect();
            assert_eq!(flat, (0..total as i64).collect::<Vec<_>>(), "order kept");
            let (min, max) = chunks.iter().fold((usize::MAX, 0), |(lo, hi), c| {
                (lo.min(c.len()), hi.max(c.len()))
            });
            assert!(
                max - min <= 1,
                "unbalanced: min={min} max={max} ({total}/{m})"
            );
        }
    }

    #[test]
    fn unsupported_plans_fall_back() {
        let (db, _, dim) = setup();
        let node = PhysNode::IndexRange {
            table: dim,
            index: "pk".into(),
            lo: None,
            hi: None,
            filter: None,
            est_rows: 20.0,
        };
        let plan = PhysPlan {
            root: node,
            dop: 1,
            memory_grant: 0,
            desired_memory: 0,
            est_cost: 1.0,
        };
        assert!(execute_push(&db, &plan).is_none());
    }

    /// Adds a table whose string column `tname` joins `dim.name`, with
    /// names `dim` lacks and NULL weights.
    fn add_tags(db: &mut Database) -> TableId {
        let schema = Schema::new(&[
            ("tid", ColType::Int),
            ("tname", ColType::Str(8)),
            ("w", ColType::Int),
        ]);
        let rows: Vec<Row> = (0..60)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("n{}", i % 25).into()),
                    if i % 9 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 4)
                    },
                ]
            })
            .collect();
        db.create_table("tag", schema, rows)
    }

    fn is_swapped(n: &PhysNode) -> bool {
        match n {
            PhysNode::HashJoin { swapped, .. } => *swapped,
            PhysNode::HashAgg { input, .. } | PhysNode::Project { input, .. } => is_swapped(input),
            _ => false,
        }
    }

    #[test]
    fn string_key_join_parity() {
        let (mut db, _, dim) = setup();
        let tag = add_tags(&mut db);
        let c = ctx();
        // Inner, build side larger than the probe side: swapped.
        let q = Logical::scan(dim, None, 20.0).join(
            Logical::scan(tag, None, 60.0),
            vec![1],
            vec![1],
            JoinKind::Inner,
            50.0,
        );
        assert!(is_swapped(&optimize(&db, &q, &c).root));
        let out = assert_parity(&db, &q, &c);
        assert_eq!(out.rows.len(), 50);
        // Inner unswapped, then every other kind, aggregated on the
        // joined string so group keys are strings too.
        let dim_small = Logical::scan(
            dim,
            Some(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(5i64))),
            5.0,
        );
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let q = Logical::scan(tag, None, 60.0).join(
                dim_small.clone(),
                vec![1],
                vec![1],
                kind,
                30.0,
            );
            assert!(!is_swapped(&optimize(&db, &q, &c).root));
            assert_parity(&db, &q, &c);
            assert_parity(&db, &q.agg(vec![1], vec![count(), sum(2)], 10.0), &c);
        }
    }

    /// Column-wise columnstore morsels equal the row path's
    /// (`Batch::from_rows` over `split_chunks` of `scan_rows`) for every
    /// morsel count, under deletes, delta rows and segment elimination.
    #[test]
    fn cs_batches_match_row_chunks() {
        use dbsens_storage::btree::RowId;
        use dbsens_storage::columnstore::ColumnStore;
        let schema = Schema::new(&[
            ("id", ColType::Int),
            ("s", ColType::Str(2)),
            ("f", ColType::Float),
        ]);
        let rows: Vec<Row> = (0..90)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("s{}", i % 3).into()),
                    if i % 31 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 2.0)
                    },
                ]
            })
            .collect();
        let mut cs = ColumnStore::build(schema, &rows, 16);
        for rid in [0, 5, 33, 34, 35, 70] {
            cs.delete(RowId(rid));
        }
        for i in 100..105 {
            cs.insert(
                RowId(i),
                vec![
                    Value::Int(i as i64),
                    Value::Str("d".into()),
                    Value::Float(0.5),
                ],
            );
        }
        let layout = |b: &Batch| -> Vec<std::mem::Discriminant<ColumnVector>> {
            b.cols.iter().map(std::mem::discriminant).collect()
        };
        let (lo, hi) = (Value::Int(20), Value::Int(50));
        for elim in [None, Some((0, Some(&lo), Some(&hi)))] {
            for m in 1..=12 {
                let got = cs_batches(&cs.live_scan(elim), 3, m);
                let want: Vec<Batch> = split_chunks(cs.scan_rows(elim), m)
                    .into_iter()
                    .map(Batch::from_rows)
                    .collect();
                assert_eq!(got.len(), m);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.capacity_rows(), w.capacity_rows());
                    assert_eq!(layout(g), layout(w));
                    assert_eq!(g.to_rows(), w.to_rows());
                }
            }
        }
    }
}
