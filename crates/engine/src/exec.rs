//! Query executor: logical evaluation plus paper-scale demand traces.
//!
//! Execution is split in two (DESIGN.md §1): this module runs the physical
//! plan against the *logical* (scaled-down) data to produce actual result
//! rows, while simultaneously emitting a [`DemandTrace`] describing the
//! *paper-scale* hardware work — instruction counts, LLC access patterns,
//! buffer-pool page runs, and spill I/O. The traces are grouped into
//! [`Stage`]s (pipelines separated by blocking operators); each stage's
//! items are distributed round-robin across `dop` worker traces which the
//! query task later replays concurrently on the simulated hardware.

use crate::db::{Database, TableId};
use crate::expr::Expr;
use crate::optimizer::workspace_width;
use crate::physplan::{PhysNode, PhysPlan};
use crate::plan::{AggFunc, AggSpec, JoinKind};
use dbsens_hwsim::fx::FxHashMap;
use dbsens_hwsim::mem::{MemProfile, Region};
use dbsens_storage::value::{cmp_values, Key, Row, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// One element of a demand trace, resolved against shared state (buffer
/// pool, SSD) at replay time.
#[derive(Debug, Clone)]
pub enum TraceItem {
    /// A compute burst.
    Compute {
        /// Instructions retired.
        instructions: u64,
        /// LLC-level memory behaviour.
        mem: MemProfile,
    },
    /// A sequential page-run access through the buffer pool.
    PageRun {
        /// First global page.
        start: u64,
        /// Page count.
        pages: u64,
        /// Whether the pages are dirtied.
        write: bool,
    },
    /// Random page accesses within a span (nested-loops inner seeks).
    RandomPages {
        /// Span start page.
        start: u64,
        /// Span length in pages.
        span: u64,
        /// Number of page touches.
        count: u64,
    },
    /// Workspace spill to tempdb.
    SpillWrite {
        /// Bytes written.
        bytes: u64,
    },
    /// Reading spilled workspace back.
    SpillRead {
        /// Bytes read.
        bytes: u64,
    },
}

/// A sequence of trace items replayed by one worker.
#[derive(Debug, Clone, Default)]
pub struct DemandTrace {
    /// The items, in order.
    pub items: Vec<TraceItem>,
}

/// A pipeline stage: its items split across `dop` workers.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Worker traces (length = effective DOP of the stage).
    pub workers: Vec<DemandTrace>,
}

impl Stage {
    /// Total items across workers.
    pub fn total_items(&self) -> usize {
        self.workers.iter().map(|w| w.items.len()).sum()
    }
}

/// A morsel-driven pipeline stage: a shared queue of per-morsel demand
/// traces claimed by `partitions` worker partitions.
///
/// Produced by the push executor ([`crate::pushexec`]). Unlike [`Stage`],
/// whose items are pre-assigned to workers round-robin, a morsel stage's
/// traces are claimed dynamically at replay time, so partition load balance
/// emerges from the simulated hardware rather than from the plan.
#[derive(Debug, Clone, Default)]
pub struct MorselStage {
    /// Worker partitions scheduled for the stage (effective DOP).
    pub partitions: usize,
    /// One demand trace per morsel, claimed in order by idle partitions.
    pub morsels: Vec<DemandTrace>,
}

impl MorselStage {
    /// Total trace items across all morsels.
    pub fn total_items(&self) -> usize {
        self.morsels.iter().map(|m| m.items.len()).sum()
    }
}

/// The product of executing a plan: logical rows plus the staged demand
/// trace and memory accounting.
#[derive(Debug)]
pub struct QueryExecution {
    /// Actual result rows (logical scale).
    pub rows: Vec<Row>,
    /// Pipeline stages to replay in order.
    pub stages: Vec<Stage>,
    /// Morsel-driven pipeline stages (set by the push executor; empty on
    /// the volcano path). When non-empty, replay uses these instead of
    /// `stages`.
    pub pipelines: Vec<MorselStage>,
    /// Plan degree of parallelism.
    pub dop: usize,
    /// Memory grant to acquire before running (paper scale).
    pub grant: u64,
    /// Workspace the plan wanted.
    pub desired: u64,
    /// Bytes spilled to tempdb because the grant was insufficient.
    pub spilled_bytes: u64,
}

/// Order-sensitive digest of a query's result rows (FNV-1a over the
/// canonical byte encoding of each value).
///
/// Used to prove the push and volcano executors produce byte-identical
/// results and that results are invariant across DOP settings. Collisions
/// are astronomically unlikely for the workloads' result sizes.
pub fn rows_digest(rows: &[Row]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for row in rows {
        eat(&[0xA0]); // row separator
        for v in row {
            match v {
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[2]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Null => eat(&[4]),
            }
        }
    }
    h
}

struct TraceBuilder {
    stages: Vec<Stage>,
    dop: usize,
    rr: usize,
}

impl TraceBuilder {
    fn new(dop: usize) -> Self {
        TraceBuilder {
            stages: vec![Stage {
                workers: vec![DemandTrace::default(); dop],
            }],
            dop,
            rr: 0,
        }
    }

    fn emit(&mut self, item: TraceItem) {
        let stage = self.stages.last_mut().expect("at least one stage");
        stage.workers[self.rr % self.dop].items.push(item);
        self.rr += 1;
    }

    fn new_stage(&mut self) {
        self.stages.push(Stage {
            workers: vec![DemandTrace::default(); self.dop],
        });
        self.rr = 0;
    }
}

/// Base region id for transient per-query structures (hash tables, sort
/// runs). Reusing ids across queries mirrors real allocators reusing
/// memory.
const TRANSIENT_REGION_BASE: u64 = 1 << 40;

/// Executes a physical plan against the database.
///
/// # Examples
///
/// ```
/// use dbsens_engine::db::Database;
/// use dbsens_engine::exec::execute;
/// use dbsens_engine::optimizer::{optimize, PlanContext};
/// use dbsens_engine::plan::Logical;
/// use dbsens_storage::schema::{ColType, Schema};
/// use dbsens_storage::value::Value;
///
/// let mut db = Database::new(100.0, 1 << 30);
/// let schema = Schema::new(&[("id", ColType::Int)]);
/// let rows: Vec<Vec<Value>> = (0..50).map(|i| vec![Value::Int(i)]).collect();
/// let t = db.create_table("t", schema, rows);
/// let ctx = PlanContext { maxdop: 4, grant_cap_bytes: 1 << 30, cost_threshold: 1e9, bufferpool_bytes: 1 << 30, db_bytes: 1 << 30 };
/// let plan = optimize(&db, &Logical::scan(t, None, 50.0), &ctx);
/// let exec = execute(&db, &plan);
/// assert_eq!(exec.rows.len(), 50);
/// assert!(!exec.stages.is_empty());
/// ```
pub fn execute(db: &Database, plan: &PhysPlan) -> QueryExecution {
    let mut ex = Executor {
        db,
        tb: TraceBuilder::new(plan.dop.max(1)),
        grant: plan.memory_grant,
        desired: plan.desired_memory.max(1),
        spilled: 0,
        next_region: TRANSIENT_REGION_BASE,
        dop: plan.dop.max(1),
    };
    if ex.dop > 1 {
        // Parallel startup cost, paid once per worker.
        for _ in 0..ex.dop {
            ex.tb.emit(TraceItem::Compute {
                instructions: db.cost.parallel_startup,
                mem: MemProfile::new(),
            });
        }
    }
    let rows = ex.exec(&plan.root);
    QueryExecution {
        rows,
        stages: ex.tb.stages,
        pipelines: Vec::new(),
        dop: ex.dop,
        grant: plan.memory_grant,
        desired: plan.desired_memory,
        spilled_bytes: ex.spilled,
    }
}

struct Executor<'a> {
    db: &'a Database,
    tb: TraceBuilder,
    grant: u64,
    desired: u64,
    spilled: u64,
    next_region: u64,
    dop: usize,
}

/// Hashable join/group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    I(i64),
    S(Arc<str>),
    F(u64),
    N,
}

impl KeyPart {
    /// The key part as an owned [`Value`] (exact: floats round-trip through
    /// their bit pattern).
    pub(crate) fn to_value(&self) -> Value {
        match self {
            KeyPart::I(i) => Value::Int(*i),
            KeyPart::S(s) => Value::Str(s.clone()),
            KeyPart::F(bits) => Value::Float(f64::from_bits(*bits)),
            KeyPart::N => Value::Null,
        }
    }
}

pub(crate) fn key_sig(row: &Row, cols: &[usize]) -> Vec<KeyPart> {
    let mut out = Vec::with_capacity(cols.len());
    key_sig_into(row, cols, &mut out);
    out
}

/// Fills `out` (cleared first) with the hashable key of `row` at `cols`,
/// reusing the buffer — per-row hash-table *lookups* must not allocate a
/// fresh key vector.
pub(crate) fn key_sig_into(row: &Row, cols: &[usize], out: &mut Vec<KeyPart>) {
    out.clear();
    out.extend(cols.iter().map(|&c| match &row[c] {
        Value::Int(i) => KeyPart::I(*i),
        Value::Str(s) => KeyPart::S(s.clone()),
        Value::Float(f) => KeyPart::F(f.to_bits()),
        Value::Null => KeyPart::N,
    }));
}

impl<'a> Executor<'a> {
    fn fresh_region(&mut self) -> Region {
        self.next_region += 1;
        Region::new(self.next_region)
    }

    /// Modeled rows represented by `logical` logical rows.
    fn modeled(&self, logical: usize) -> f64 {
        logical as f64 * self.db.row_scale
    }

    /// Workspace available to an operator wanting `bytes`, sharing the
    /// grant proportionally; returns bytes to spill (0 if it fits).
    fn spill_bytes(&mut self, want: u64) -> u64 {
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

    /// Emits a compute burst, splitting very large bursts into
    /// chunk-per-worker granules so parallel stages balance.
    fn emit_compute(&mut self, instructions: f64, mem: MemProfile) {
        let total = instructions.max(0.0) as u64;
        if total == 0 && mem.is_empty() {
            return;
        }
        let chunk_target = self.db.cost.trace_chunk_rows * 30; // ~instructions per chunk
        let chunks = (total / chunk_target.max(1)).clamp(1, 512) as usize;
        let per = total / chunks as u64;
        // The profile describes the whole burst; split its counts across
        // chunks so parallel workers replay balanced shares.
        let per_chunk_mem = if chunks == 1 {
            mem.clone()
        } else {
            scale_profile(&mem, 1.0 / chunks as f64)
        };
        for _ in 0..chunks {
            self.tb.emit(TraceItem::Compute {
                instructions: per,
                mem: per_chunk_mem.clone(),
            });
        }
    }

    /// Emits spill I/O split into per-worker granules. Every worker of the
    /// stage owns a share of the tempdb traffic and blocks on it, so an
    /// insufficient grant puts the spill on the stage's critical path —
    /// emitted whole, it lands on a single worker and hides behind the
    /// others' compute, making queries grant-insensitive (Figure 8).
    fn emit_spill(&mut self, bytes: u64, write: bool) {
        if bytes == 0 {
            return;
        }
        let chunks = (bytes / (8 << 20)).clamp(self.dop as u64, 256) as usize;
        let per = bytes / chunks as u64;
        let rem = bytes - per * chunks as u64;
        for i in 0..chunks {
            let b = per + if i == 0 { rem } else { 0 };
            if b == 0 {
                continue;
            }
            self.tb.emit(if write {
                TraceItem::SpillWrite { bytes: b }
            } else {
                TraceItem::SpillRead { bytes: b }
            });
        }
    }

    /// Emits the page runs of a sequential scan, chunked.
    /// Emits a scan's page runs interleaved with its compute chunks, so a
    /// replaying worker overlaps read-ahead I/O with processing (the
    /// overlap behind Figure 5's concave response).
    fn emit_scan_interleaved(&mut self, runs: &[(u64, u64)], instructions: f64, mem: MemProfile) {
        let chunk_pages = 1024u64;
        let mut chunks: Vec<(u64, u64)> = Vec::new();
        for &(start, pages) in runs {
            let mut p = start;
            let end = start + pages;
            while p < end {
                let n = chunk_pages.min(end - p);
                chunks.push((p, n));
                p += n;
            }
        }
        if chunks.is_empty() {
            self.emit_compute(instructions, mem);
            return;
        }
        // Bound trace size for very large tables: merge chunks if needed.
        const MAX_CHUNKS: usize = 1024;
        if chunks.len() > MAX_CHUNKS {
            let stride = chunks.len().div_ceil(MAX_CHUNKS);
            chunks = chunks
                .chunks(stride)
                .map(|group| {
                    let start = group[0].0;
                    let pages: u64 = group.iter().map(|(_, n)| n).sum();
                    (start, pages)
                })
                .collect();
        }
        let n = chunks.len();
        let per_instr = (instructions.max(0.0) as u64) / n as u64;
        let per_mem = scale_profile(&mem, 1.0 / n as f64);
        for (start, pages) in chunks {
            self.tb.emit(TraceItem::PageRun {
                start,
                pages,
                write: false,
            });
            self.tb.emit(TraceItem::Compute {
                instructions: per_instr,
                mem: per_mem.clone(),
            });
        }
    }

    fn exec(&mut self, n: &PhysNode) -> Vec<Row> {
        match n {
            PhysNode::SeqScan {
                table,
                filter,
                project,
                ..
            } => self.exec_seq_scan(*table, filter.as_ref(), project.as_deref()),
            PhysNode::ColumnstoreScan {
                table,
                filter,
                elim,
                project,
                ..
            } => self.exec_cs_scan(*table, filter.as_ref(), elim.as_ref(), project.as_deref()),
            PhysNode::IndexRange {
                table,
                index,
                lo,
                hi,
                filter,
                ..
            } => self.exec_index_range(*table, index, lo.as_ref(), hi.as_ref(), filter.as_ref()),
            PhysNode::HashJoin {
                probe,
                build,
                probe_keys,
                build_keys,
                kind,
                swapped,
                ..
            } => self.exec_hash_join(probe, build, probe_keys, build_keys, *kind, *swapped),
            PhysNode::NlJoin {
                outer,
                inner_table,
                inner_index,
                outer_keys,
                kind,
                filter,
                ..
            } => self.exec_nl_join(
                outer,
                *inner_table,
                inner_index,
                outer_keys,
                *kind,
                filter.as_ref(),
            ),
            PhysNode::HashAgg {
                input,
                group_by,
                aggs,
                ..
            } => self.exec_hash_agg(input, group_by, aggs),
            PhysNode::StreamAgg { input, aggs } => self.exec_stream_agg(input, aggs),
            PhysNode::Sort { input, keys, .. } => self.exec_sort(input, keys),
            PhysNode::Top { input, n } => {
                let mut rows = self.exec(input);
                rows.truncate(*n);
                rows
            }
            PhysNode::Project { input, exprs } => {
                let rows = self.exec(input);
                let instr = self.modeled(rows.len())
                    * (exprs.iter().map(Expr::node_count).sum::<u64>() * self.db.cost.expr_node)
                        as f64;
                self.emit_compute(instr, MemProfile::new());
                rows.iter()
                    .map(|r| exprs.iter().map(|e| e.eval(r)).collect())
                    .collect()
            }
            PhysNode::Filter { input, pred } => {
                let rows = self.exec(input);
                let instr =
                    self.modeled(rows.len()) * (pred.node_count() * self.db.cost.expr_node) as f64;
                self.emit_compute(instr, MemProfile::new());
                rows.into_iter().filter(|r| pred.matches(r)).collect()
            }
        }
    }

    fn exec_seq_scan(
        &mut self,
        table: TableId,
        filter: Option<&Expr>,
        project: Option<&[usize]>,
    ) -> Vec<Row> {
        let t = self.db.table(table);
        let modeled_rows = t.layout.modeled_rows() as f64;
        let expr_nodes = filter.map_or(0, Expr::node_count);
        let instr =
            modeled_rows * (self.db.cost.scan_row + expr_nodes * self.db.cost.expr_node) as f64;
        let mut mem = MemProfile::new();
        t.layout.scan_mem(&mut mem, 1.0);
        mem.random(
            self.db.batch_region(),
            self.db.cost.batch_footprint_bytes,
            (modeled_rows as u64).max(1),
        );
        let (start, pages) = t.layout.scan_run();
        self.emit_scan_interleaved(&[(start, pages)], instr, mem);
        t.heap
            .iter()
            .map(|(_, r)| r)
            .filter(|r| filter.is_none_or(|f| f.matches(r)))
            .map(|r| match project {
                Some(p) => p.iter().map(|&c| r[c].clone()).collect(),
                None => r.clone(),
            })
            .collect()
    }

    fn exec_cs_scan(
        &mut self,
        table: TableId,
        filter: Option<&Expr>,
        elim: Option<&(usize, Option<Value>, Option<Value>)>,
        project: Option<&[usize]>,
    ) -> Vec<Row> {
        let t = self.db.table(table);
        let cs = t
            .columnstore
            .as_ref()
            .unwrap_or_else(|| panic!("columnstore scan on {} without columnstore", t.name));
        // Segment elimination fraction.
        let (elim_arg, frac) = match elim {
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
        };
        let schema_len = t.heap.schema().len();
        let cols: Vec<usize> = match project {
            Some(p) => {
                let mut c = p.to_vec();
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
        let expr_nodes = filter.map_or(0, Expr::node_count);
        let instr = modeled_rows
            * (cols.len() as u64 * self.db.cost.columnstore_row_per_col
                + expr_nodes * self.db.cost.expr_node) as f64;
        let mut mem = MemProfile::new();
        let mut runs = Vec::with_capacity(cols.len());
        for &c in &cols {
            cs.layout.column_scan_mem(&mut mem, c, frac);
            runs.push(cs.layout.column_scan_run(c, frac));
        }
        // Batch buffers and dictionaries: the reusable footprint that makes
        // analytical scans cache-sensitive (Figure 2, Table 4).
        mem.random(
            self.db.batch_region(),
            self.db.cost.batch_footprint_bytes,
            ((modeled_rows as u64) * self.db.cost.batch_accesses_per_row).max(1),
        );
        self.emit_scan_interleaved(&runs, instr, mem);

        let rows = cs.store.scan_rows(elim_arg);
        rows.into_iter()
            .filter(|r| filter.is_none_or(|f| f.matches(r)))
            .map(|r| match project {
                Some(p) => p.iter().map(|&c| r[c].clone()).collect(),
                None => r,
            })
            .collect()
    }

    fn exec_index_range(
        &mut self,
        table: TableId,
        index: &str,
        lo: Option<&Key>,
        hi: Option<&Key>,
        filter: Option<&Expr>,
    ) -> Vec<Row> {
        let t = self.db.table(table);
        let idx = t.index(index);
        let rids: Vec<_> = match (lo, hi) {
            (Some(lo), Some(hi)) => idx.btree.range(lo, hi).map(|(_, rid)| rid).collect(),
            (Some(lo), None) => idx.btree.seek(lo).map(|(_, rid)| rid).collect(),
            (None, Some(hi)) => idx
                .btree
                .iter()
                .take_while(|(k, _)| *k < hi)
                .map(|(_, rid)| rid)
                .collect(),
            (None, None) => idx.btree.iter().map(|(_, rid)| rid).collect(),
        };
        let total = idx.btree.len().max(1);
        let frac = (rids.len() as f64 / total as f64).clamp(0.0, 1.0);
        let start_frac = rids
            .first()
            .map(|r| r.0 as f64 / t.heap.slot_count().max(1) as f64)
            .unwrap_or(0.0)
            .clamp(0.0, 1.0);

        let modeled = self.modeled(rids.len());
        let instr = idx.layout.levels() as f64 * self.db.cost.btree_level as f64
            + modeled * self.db.cost.scan_row as f64
            + modeled * filter.map_or(0, Expr::node_count) as f64 * self.db.cost.expr_node as f64;
        let mut mem = MemProfile::new();
        idx.layout.probe_mem(&mut mem, 1);
        t.layout.scan_mem(&mut mem, frac);
        let (lstart, lpages) = idx.layout.leaf_scan_run(start_frac, frac);
        // Fetch the base rows (roughly clustered with the key order for our
        // generators).
        let tpages = ((t.layout.pages() as f64 * frac).ceil() as u64)
            .max(1)
            .min(t.layout.pages());
        self.emit_scan_interleaved(
            &[
                (lstart, lpages),
                (t.layout.page_of_fraction(start_frac), tpages),
            ],
            instr,
            mem,
        );

        rids.iter()
            .filter_map(|&rid| t.heap.get(rid))
            .filter(|r| filter.is_none_or(|f| f.matches(r)))
            .cloned()
            .collect()
    }

    fn exec_hash_join(
        &mut self,
        probe: &PhysNode,
        build: &PhysNode,
        probe_keys: &[usize],
        build_keys: &[usize],
        kind: JoinKind,
        swapped: bool,
    ) -> Vec<Row> {
        // Build pipeline.
        let build_rows = self.exec(build);
        let build_modeled = self.modeled(build_rows.len());
        let width = build_rows.first().map_or(8, |r| workspace_width(r.len()));
        let ht_bytes = (build_modeled * (self.db.cost.hash_bytes_per_row + width) as f64) as u64;
        let spill = self.spill_bytes(ht_bytes);
        let ht_region = self.fresh_region();
        let mut mem = MemProfile::new();
        mem.random(ht_region, ht_bytes.max(4096), build_modeled as u64);
        // Batch-mode operator buffers (shared hot footprint).
        mem.random(
            self.db.batch_region(),
            self.db.cost.batch_footprint_bytes,
            ((build_modeled as u64) * 2).max(1),
        );
        self.emit_compute(build_modeled * self.db.cost.hash_build_row as f64, mem);
        if spill > 0 {
            // Partitions that overflow the grant are written out before
            // probing can start (grace-join pass 1 ends at a barrier).
            self.tb.new_stage();
            self.emit_spill(spill, true);
        }

        // Probe pipeline.
        self.tb.new_stage();
        let probe_rows = self.exec(probe);
        let probe_modeled = self.modeled(probe_rows.len());
        if spill > 0 {
            // Grace-join style: spilled partitions of the probe side too,
            // then read both back.
            let probe_bytes = (probe_modeled * width as f64 * 0.5) as u64;
            let probe_spill = (probe_bytes as f64 * (spill as f64 / ht_bytes.max(1) as f64)) as u64;
            self.emit_spill(probe_spill, true);
            // Pass 2: spilled build/probe partition pairs come back from
            // tempdb and are re-built and probed only after the in-memory
            // pass finishes — the round trip cannot overlap pass 1, which
            // is what makes grant starvation hurt (Figure 8).
            self.tb.new_stage();
            self.emit_spill(spill + probe_spill, false);
            let spilled_rows = build_modeled * (spill as f64 / ht_bytes.max(1) as f64);
            let mut mem = MemProfile::new();
            mem.random(ht_region, spill.max(4096), spilled_rows as u64);
            self.emit_compute(spilled_rows * self.db.cost.hash_build_row as f64, mem);
            self.spilled += probe_spill;
        }
        let mut mem = MemProfile::new();
        // Per probe: the payload lookup misses over the full table, but the
        // bucket headers / bitmap (Bloom) filter live in a small hot
        // footprint — the cache-sensitive share of join work.
        mem.random(ht_region, ht_bytes.max(4096), (probe_modeled * 0.6) as u64);
        mem.random(
            self.db.batch_region(),
            self.db.cost.batch_footprint_bytes,
            ((probe_modeled as u64) * 3).max(1),
        );
        let mut probe_instr = probe_modeled * self.db.cost.hash_probe_row as f64;
        if self.dop > 1 {
            probe_instr += (probe_modeled + build_modeled) * self.db.cost.exchange_row as f64;
        }
        self.emit_compute(probe_instr, mem);

        // Logical join.
        let mut ht: FxHashMap<Vec<KeyPart>, Vec<usize>> = FxHashMap::default();
        for (i, r) in build_rows.iter().enumerate() {
            ht.entry(key_sig(r, build_keys)).or_default().push(i);
        }
        let build_width = build_rows.first().map_or(0, Vec::len);
        let mut out = Vec::new();
        let mut probe_sig = Vec::new();
        for pr in &probe_rows {
            key_sig_into(pr, probe_keys, &mut probe_sig);
            let matches = ht.get(&probe_sig);
            match kind {
                JoinKind::Inner => {
                    if let Some(ms) = matches {
                        for &bi in ms {
                            // `swapped` means the logical left is the build
                            // side; restore left ++ right column order.
                            let mut row = if swapped {
                                build_rows[bi].clone()
                            } else {
                                pr.clone()
                            };
                            row.extend(if swapped {
                                pr.iter().cloned()
                            } else {
                                build_rows[bi].iter().cloned()
                            });
                            out.push(row);
                        }
                    }
                }
                JoinKind::LeftOuter => match matches {
                    Some(ms) => {
                        for &bi in ms {
                            let mut row = pr.clone();
                            row.extend(build_rows[bi].iter().cloned());
                            out.push(row);
                        }
                    }
                    None => {
                        let mut row = pr.clone();
                        row.extend(std::iter::repeat_with(|| Value::Null).take(build_width));
                        out.push(row);
                    }
                },
                JoinKind::Semi => {
                    if matches.is_some() {
                        out.push(pr.clone());
                    }
                }
                JoinKind::Anti => {
                    if matches.is_none() {
                        out.push(pr.clone());
                    }
                }
            }
        }
        out
    }

    fn exec_nl_join(
        &mut self,
        outer: &PhysNode,
        inner_table: TableId,
        inner_index: &str,
        outer_keys: &[usize],
        kind: JoinKind,
        filter: Option<&Expr>,
    ) -> Vec<Row> {
        let outer_rows = self.exec(outer);
        let t = self.db.table(inner_table);
        let idx = t.index(inner_index);
        let outer_modeled = self.modeled(outer_rows.len());

        let mut mem = MemProfile::new();
        idx.layout.probe_mem(&mut mem, outer_modeled as u64);
        let instr = outer_modeled * idx.layout.levels() as f64 * self.db.cost.btree_level as f64;
        // Random leaf and base-table pages: emitted as sampled random
        // accesses so buffer-pool behaviour reflects the working set.
        let (lstart, lpages) = idx.layout.leaf_scan_run(0.0, 1.0);
        if outer_modeled >= 1.0 {
            self.tb.emit(TraceItem::RandomPages {
                start: lstart,
                span: lpages,
                count: outer_modeled as u64,
            });
            self.tb.emit(TraceItem::RandomPages {
                start: t.layout.start_page(),
                span: t.layout.pages(),
                count: outer_modeled as u64,
            });
        }
        self.emit_compute(instr, mem);

        let mut out = Vec::new();
        let inner_arity = t.heap.schema().len();
        for orow in &outer_rows {
            let key = Key::from_values(outer_keys.iter().map(|&c| orow[c].clone()).collect());
            let mut matched = false;
            for rid in idx.btree.get(&key) {
                let Some(irow) = t.heap.get(rid) else {
                    continue;
                };
                let mut row = orow.clone();
                row.extend(irow.iter().cloned());
                if filter.is_none_or(|f| f.matches(&row)) {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => out.push(row),
                        JoinKind::Semi => {
                            out.push(orow.clone());
                            break;
                        }
                        JoinKind::Anti => break,
                    }
                }
            }
            if !matched {
                match kind {
                    JoinKind::Anti => out.push(orow.clone()),
                    JoinKind::LeftOuter => {
                        let mut row = orow.clone();
                        row.extend(std::iter::repeat_with(|| Value::Null).take(inner_arity));
                        out.push(row);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn exec_hash_agg(
        &mut self,
        input: &PhysNode,
        group_by: &[usize],
        aggs: &[AggSpec],
    ) -> Vec<Row> {
        let rows = self.exec(input);
        let in_modeled = self.modeled(rows.len());

        let mut groups: FxHashMap<Vec<KeyPart>, (Row, Vec<AggAcc>)> = FxHashMap::default();
        let mut sig = Vec::new();
        for r in &rows {
            // Lookup through a reusable key buffer; a key vector is only
            // materialized for the (rare) first row of each group.
            key_sig_into(r, group_by, &mut sig);
            if !groups.contains_key(&sig) {
                groups.insert(
                    sig.clone(),
                    (
                        group_by.iter().map(|&c| r[c].clone()).collect(),
                        aggs.iter().map(|a| AggAcc::new(a.func)).collect(),
                    ),
                );
            }
            let entry = groups.get_mut(&sig).expect("group just ensured");
            for (acc, spec) in entry.1.iter_mut().zip(aggs) {
                acc.update(&spec.expr.eval(r));
            }
        }
        let groups_modeled = self.modeled(groups.len());
        let width = workspace_width(group_by.len() + aggs.len());
        let ht_bytes = (groups_modeled * (self.db.cost.hash_bytes_per_row + width) as f64) as u64;
        let spill = self.spill_bytes(ht_bytes);
        let region = self.fresh_region();
        let mut mem = MemProfile::new();
        mem.random(region, ht_bytes.max(4096), (in_modeled * 0.6) as u64);
        mem.random(
            self.db.batch_region(),
            self.db.cost.batch_footprint_bytes,
            ((in_modeled as u64) * 3).max(1),
        );
        let agg_nodes: u64 = aggs.iter().map(|a| a.expr.node_count()).sum();
        self.emit_compute(
            in_modeled * (self.db.cost.agg_row + agg_nodes * self.db.cost.expr_node) as f64,
            mem,
        );
        if spill > 0 {
            // Overflowed groups round-trip through tempdb and are merged
            // back in a second pass after the in-memory aggregation.
            self.emit_spill(spill, true);
            self.tb.new_stage();
            self.emit_spill(spill, false);
            let spilled_groups = groups_modeled * (spill as f64 / ht_bytes.max(1) as f64);
            self.emit_compute(
                spilled_groups * self.db.cost.agg_row as f64,
                MemProfile::new(),
            );
        }

        groups
            .into_values()
            .map(|(mut key_vals, accs)| {
                key_vals.extend(accs.into_iter().map(AggAcc::finish));
                key_vals
            })
            .collect()
    }

    fn exec_stream_agg(&mut self, input: &PhysNode, aggs: &[AggSpec]) -> Vec<Row> {
        let rows = self.exec(input);
        let in_modeled = self.modeled(rows.len());
        let agg_nodes: u64 = aggs.iter().map(|a| a.expr.node_count()).sum();
        self.emit_compute(
            in_modeled
                * ((self.db.cost.agg_row as f64 * 0.4)
                    + (agg_nodes * self.db.cost.expr_node) as f64),
            MemProfile::new(),
        );
        let mut accs: Vec<AggAcc> = aggs.iter().map(|a| AggAcc::new(a.func)).collect();
        for r in &rows {
            for (acc, spec) in accs.iter_mut().zip(aggs) {
                acc.update(&spec.expr.eval(r));
            }
        }
        vec![accs.into_iter().map(AggAcc::finish).collect()]
    }

    fn exec_sort(&mut self, input: &PhysNode, keys: &[(usize, bool)]) -> Vec<Row> {
        let mut rows = self.exec(input);
        let modeled = self.modeled(rows.len()).max(2.0);
        let width = rows.first().map_or(8, |r| workspace_width(r.len()));
        let sort_bytes = (modeled * (self.db.cost.sort_bytes_per_row + width) as f64) as u64;
        let spill = self.spill_bytes(sort_bytes);
        let region = self.fresh_region();
        let mut mem = MemProfile::new();
        mem.random(region, sort_bytes.max(4096), modeled as u64);
        self.emit_compute(
            modeled * modeled.log2() * self.db.cost.sort_row_log as f64,
            mem,
        );
        if spill > 0 {
            // External merge sort: spilled runs are written out, then read
            // back and merged in a pass that follows run generation.
            self.emit_spill(spill, true);
            self.tb.new_stage();
            self.emit_spill(spill, false);
            let spilled_rows = modeled * (spill as f64 / sort_bytes.max(1) as f64);
            self.emit_compute(
                spilled_rows * self.db.cost.sort_row_log as f64,
                MemProfile::new(),
            );
        }
        rows.sort_by(|a, b| {
            for &(c, desc) in keys {
                let ord = cmp_values(&a[c], &b[c]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        rows
    }
}

pub(crate) fn scale_profile(mem: &MemProfile, factor: f64) -> MemProfile {
    use dbsens_hwsim::mem::AccessPattern;
    let mut out = MemProfile::new();
    for p in mem.patterns() {
        match *p {
            AccessPattern::Stream { region, bytes } => {
                out.stream(region, (bytes as f64 * factor) as u64);
            }
            AccessPattern::Random {
                region,
                footprint,
                count,
            } => {
                out.random(region, footprint, ((count as f64 * factor) as u64).max(1));
            }
        }
    }
    out
}

pub(crate) fn collect_cols(e: &Expr, out: &mut Vec<usize>) {
    match e {
        Expr::Col(c) => out.push(*c),
        Expr::Lit(_) => {}
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Cmp(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        Expr::Not(a)
        | Expr::StartsWith(a, _)
        | Expr::Contains(a, _)
        | Expr::Between(a, _, _)
        | Expr::IsNull(a) => collect_cols(a, out),
        Expr::IntDiv(a, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        Expr::InList(a, _) => collect_cols(a, out),
    }
}

/// Aggregate accumulator.
#[derive(Debug)]
pub(crate) enum AggAcc {
    Sum(f64, bool),
    Avg(f64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Count(u64),
}

impl AggAcc {
    pub(crate) fn new(f: AggFunc) -> Self {
        match f {
            AggFunc::Sum => AggAcc::Sum(0.0, false),
            AggFunc::Avg => AggAcc::Avg(0.0, 0),
            AggFunc::Min => AggAcc::Min(None),
            AggFunc::Max => AggAcc::Max(None),
            AggFunc::Count => AggAcc::Count(0),
        }
    }

    pub(crate) fn update(&mut self, v: &Value) {
        match self {
            AggAcc::Sum(s, any) => {
                if !v.is_null() {
                    *s += v.as_f64();
                    *any = true;
                }
            }
            AggAcc::Avg(s, n) => {
                if !v.is_null() {
                    *s += v.as_f64();
                    *n += 1;
                }
            }
            AggAcc::Min(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| cmp_values(v, cur) == Ordering::Less)
                {
                    *m = Some(v.clone());
                }
            }
            AggAcc::Max(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| cmp_values(v, cur) == Ordering::Greater)
                {
                    *m = Some(v.clone());
                }
            }
            AggAcc::Count(n) => *n += 1,
        }
    }

    /// Updates from live row `i` of an evaluated operand without
    /// materializing an owned [`Value`]: scalars and typed dense columns
    /// feed the accumulator directly.
    pub(crate) fn update_col(&mut self, op: &crate::vexpr::Operand<'_>, i: usize) {
        use crate::batch::ColumnVector;
        let col = match op {
            crate::vexpr::Operand::Scalar(v) => return self.update(v),
            op => op.column().expect("not a scalar"),
        };
        match col {
            ColumnVector::Int(v) => self.update(&Value::Int(v[i])),
            ColumnVector::Float(v) => self.update(&Value::Float(v[i])),
            ColumnVector::Mixed(v) => self.update(&v[i]),
            ColumnVector::Str(v) => {
                let s = &v[i];
                match self {
                    AggAcc::Count(n) => *n += 1,
                    AggAcc::Min(m) => {
                        // `cmp_values` sorts strings after numerics, so a
                        // string never undercuts a numeric minimum.
                        let replace = match m.as_ref() {
                            None => true,
                            Some(Value::Str(cur)) => s < cur,
                            Some(_) => false,
                        };
                        if replace {
                            *m = Some(Value::Str(s.clone()));
                        }
                    }
                    AggAcc::Max(m) => {
                        let replace = match m.as_ref() {
                            None => true,
                            Some(Value::Str(cur)) => s > cur,
                            Some(_) => true,
                        };
                        if replace {
                            *m = Some(Value::Str(s.clone()));
                        }
                    }
                    AggAcc::Sum(..) | AggAcc::Avg(..) => {
                        // Matches `Value::as_f64`'s contract on a string.
                        panic!("expected numeric, got Str({s:?})")
                    }
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggAcc::Sum(s, any) => {
                if any {
                    Value::Float(s)
                } else {
                    Value::Null
                }
            }
            AggAcc::Avg(s, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(s / n as f64)
                }
            }
            AggAcc::Min(m) | AggAcc::Max(m) => m.unwrap_or(Value::Null),
            AggAcc::Count(n) => Value::Int(n as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::optimizer::{optimize, PlanContext};
    use crate::plan::{avg, count, sum, Logical};
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
        db.create_index(dim, "pk", &[0]);
        db.create_index(fact, "pk", &[0]);
        (db, fact, dim)
    }

    fn ctx() -> PlanContext {
        PlanContext {
            maxdop: 4,
            grant_cap_bytes: 1 << 30,
            cost_threshold: 1e18, // force serial unless a test overrides
            bufferpool_bytes: 1 << 30,
            db_bytes: 1 << 30,
        }
    }

    fn run(db: &Database, q: &Logical, ctx: &PlanContext) -> QueryExecution {
        let plan = optimize(db, q, ctx);
        execute(db, &plan)
    }

    #[test]
    fn scan_filter_project_results() {
        let (db, fact, _) = setup();
        let q = Logical::scan(
            fact,
            Some(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(10i64))),
            10.0,
        )
        .project(vec![Expr::Col(0), Expr::Col(2)]);
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 10);
        assert_eq!(out.rows[0].len(), 2);
        assert!(out.stages[0].total_items() > 0);
    }

    #[test]
    fn hash_join_inner_matches_expected_count() {
        let (db, fact, dim) = setup();
        let q = Logical::scan(fact, None, 400.0).join(
            Logical::scan(dim, None, 20.0),
            vec![1],
            vec![0],
            JoinKind::Inner,
            400.0,
        );
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 400); // every fact row matches one dim
        assert_eq!(out.rows[0].len(), 6);
        // Build + probe pipelines.
        assert!(out.stages.len() >= 2);
    }

    #[test]
    fn semi_and_anti_join() {
        let (db, fact, dim) = setup();
        // dim ids 0..20; fact fk 0..20 — restrict dim to 0..5.
        let dim_small = Logical::scan(
            dim,
            Some(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(5i64))),
            5.0,
        );
        let semi = Logical::scan(fact, None, 400.0).join(
            dim_small.clone(),
            vec![1],
            vec![0],
            JoinKind::Semi,
            100.0,
        );
        let out = run(&db, &semi, &ctx());
        assert_eq!(out.rows.len(), 100);
        assert_eq!(out.rows[0].len(), 4); // left columns only
        let anti = Logical::scan(fact, None, 400.0).join(
            dim_small,
            vec![1],
            vec![0],
            JoinKind::Anti,
            300.0,
        );
        let out = run(&db, &anti, &ctx());
        assert_eq!(out.rows.len(), 300);
    }

    #[test]
    fn aggregate_values_are_correct() {
        let (db, fact, _) = setup();
        // Group by qty (0..7), count and sum id.
        let q = Logical::scan(fact, None, 400.0).agg(vec![2], vec![count(), sum(0)], 7.0);
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 7);
        let total: i64 = out.rows.iter().map(|r| r[1].as_int()).sum();
        assert_eq!(total, 400);
        // Scalar aggregate.
        let q = Logical::scan(fact, None, 400.0).agg(vec![], vec![avg(2), count()], 1.0);
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][1].as_int(), 400);
    }

    #[test]
    fn sort_and_top() {
        let (db, fact, _) = setup();
        let q = Logical::scan(fact, None, 400.0)
            .sort(vec![(3, true)])
            .top(5);
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 5);
        assert_eq!(out.rows[0][0].as_int(), 399); // highest price first
        assert!(out
            .rows
            .windows(2)
            .all(|w| w[0][3].as_f64() >= w[1][3].as_f64()));
    }

    #[test]
    fn nl_join_produces_same_rows_as_hash() {
        let (db, fact, dim) = setup();
        let q = Logical::scan(fact, None, 400.0)
            .filter(Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(40i64)), 0.1)
            .join(
                Logical::scan(dim, None, 20.0),
                vec![1],
                vec![0],
                JoinKind::Inner,
                40.0,
            );
        // Force NL by making the probe side huge relative to hash costs:
        // instead, lower the plan twice and compare row sets whichever
        // algorithms were chosen.
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 40);
        assert_eq!(out.rows[0].len(), 6);
    }

    #[test]
    fn parallel_plan_splits_trace_across_workers() {
        let (db, fact, _) = setup();
        let q = Logical::scan(fact, None, 400.0);
        let mut c = ctx();
        c.cost_threshold = 0.0; // force parallel
        let out = run(&db, &q, &c);
        assert_eq!(out.dop, 4);
        let busy_workers = out.stages[0]
            .workers
            .iter()
            .filter(|w| !w.items.is_empty())
            .count();
        assert!(busy_workers >= 2, "trace not distributed: {busy_workers}");
    }

    #[test]
    fn insufficient_grant_causes_spill() {
        let (db, fact, dim) = setup();
        let q = Logical::scan(fact, None, 400.0).join(
            Logical::scan(dim, None, 20.0),
            vec![1],
            vec![1], // no index on col 1: hash join
            JoinKind::Inner,
            400.0,
        );
        let mut c = ctx();
        c.grant_cap_bytes = 1; // starve the query
        let out = run(&db, &q, &c);
        assert!(out.spilled_bytes > 0);
        let has_spill = out
            .stages
            .iter()
            .flat_map(|s| &s.workers)
            .flat_map(|w| &w.items)
            .any(|i| matches!(i, TraceItem::SpillWrite { .. }));
        assert!(has_spill);
    }

    #[test]
    fn columnstore_scan_execution() {
        let (mut db, fact, _) = setup();
        db.create_columnstore(fact, 64);
        let q = Logical::scan_project(
            fact,
            Some(Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::lit(300i64))),
            vec![0, 3],
            100.0,
        );
        let out = run(&db, &q, &ctx());
        assert_eq!(out.rows.len(), 100);
        assert_eq!(out.rows[0].len(), 2);
    }
}
