//! The benchmark loop shared by every workload.
//!
//! A run sets up a forest (generate the corpus, build every tree serially,
//! assemble), then repeats *rounds* until `--seconds` have passed.  One
//! round is a fixed sequence of short slices, so every metric samples the
//! same mix of host phases:
//!
//! 1. a serving slice: `batches_per_slice` routed batches through
//!    `try_route_distances_into` on reused scratch (one closed-loop client),
//!    each followed by one budgeted `scrub` step;
//! 2. a set-up slice: the next few trees of a fresh, complete set-up pass
//!    (its total is one `setup_s` sample);
//! 3. one stage of a churn cycle: build a fresh tree; append it and
//!    tombstone the oldest, then compact and publish; reopen lazily and
//!    answer one query; open eagerly.
//!
//! Every answer is checked outside the timed calls.  After the loop, every
//! pooled batch also goes through `try_route_distances_sharded`, untimed,
//! and must match the serial answers bit for bit: timing the sharded engine
//! inside the loop made the serial batches' tail latency depend on thread
//! start-up (see `README.md`).  With tracing on, the same loop records
//! spans, and a probe phase afterwards times the kernel, store and routing
//! layers directly over the workload's own pairs.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use treelab_bits::crc;
use treelab_core::approximate::ApproximateScheme;
use treelab_core::distance_array::DistanceArrayScheme;
use treelab_core::forest::{
    ForestBuilder, ForestStore, QueryStatus, RouteScratch, ScrubOutcome, Scrubber, ValidationPolicy,
};
use treelab_core::kdistance::KDistanceScheme;
use treelab_core::level_ancestor::LevelAncestorScheme;
use treelab_core::naive::NaiveScheme;
use treelab_core::optimal::OptimalScheme;
use treelab_core::{DistanceScheme, Parallelism, Substrate};
use treelab_tree::Tree;

use crate::alloc::allocations;
use crate::inputs::{self, Kind, Pair, Slot, Spec};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`inputs::WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
    /// Directory for the published forest file and the span dump.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No checked operation failed.
    pub correct: bool,
    /// Operations attempted (queries, scrub steps, cycle stages, set-up passes).
    pub attempted: u64,
    /// Operations whose result failed its check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// A built scheme of any kind.  Only one or two exist at a time, so the
/// size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Built {
    Naive(NaiveScheme),
    DistanceArray(DistanceArrayScheme),
    Optimal(OptimalScheme),
    KDistance(KDistanceScheme),
    Approximate(ApproximateScheme),
    LevelAncestor(LevelAncestorScheme),
}

macro_rules! with_built {
    ($b:expr, $s:ident => $e:expr) => {
        match $b {
            Built::Naive($s) => $e,
            Built::DistanceArray($s) => $e,
            Built::Optimal($s) => $e,
            Built::KDistance($s) => $e,
            Built::Approximate($s) => $e,
            Built::LevelAncestor($s) => $e,
        }
    };
}

fn pack_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Naive => "pack.naive",
        Kind::DistanceArray => "pack.distance_array",
        Kind::Optimal => "pack.optimal",
        Kind::KDistance => "pack.kdistance",
        Kind::Approximate => "pack.approximate",
        Kind::LevelAncestor => "pack.level_ancestor",
    }
}

/// Turns one tree into its packed scheme: a serial substrate with the
/// components the scheme reads forced one at a time, then the pack.
fn build(tr: &mut Tracer, tree: &Tree, kind: Kind) -> Built {
    let sub = Substrate::with_parallelism(tree, Parallelism::Serial);
    match kind {
        Kind::Naive | Kind::DistanceArray | Kind::Optimal => {
            tr.time("substrate.binarize", || sub.binarized().is_some());
        }
        Kind::KDistance | Kind::Approximate | Kind::LevelAncestor => {
            tr.time("substrate.heavy_paths", || sub.heavy_paths().len());
            if kind != Kind::LevelAncestor {
                tr.time("substrate.aux_labels", || {
                    sub.aux_labels();
                });
            }
            if kind != Kind::Approximate {
                tr.time("substrate.depths", || sub.depths().len());
            }
        }
    }
    tr.time(pack_span(kind), || match kind {
        Kind::Naive => Built::Naive(NaiveScheme::build_with_substrate(&sub)),
        Kind::DistanceArray => {
            Built::DistanceArray(DistanceArrayScheme::build_with_substrate(&sub))
        }
        Kind::Optimal => Built::Optimal(OptimalScheme::build_with_substrate(&sub)),
        Kind::KDistance => Built::KDistance(KDistanceScheme::build_with_substrate(&sub, inputs::K)),
        Kind::Approximate => Built::Approximate(ApproximateScheme::build_with_substrate(
            &sub,
            inputs::EPSILON,
        )),
        Kind::LevelAncestor => {
            Built::LevelAncestor(LevelAncestorScheme::build_with_substrate(&sub))
        }
    })
    .0
}

/// A live tree as the client sees it.
struct Entry {
    id: u64,
    kind: Kind,
    bank: Vec<Pair>,
}

/// A set-up pass in progress.
struct SetupPass {
    group: u64,
    next: u64,
    builder: Option<ForestBuilder>,
    elapsed: Duration,
    /// Keep banks and label sizes (the pass that builds the serving forest).
    keep: bool,
    entries: Vec<Entry>,
    label_bits_max: usize,
    nodes: usize,
}

impl SetupPass {
    fn new(tr: &mut Tracer, keep: bool) -> Self {
        SetupPass {
            group: tr.group("setup"),
            next: 0,
            builder: Some(ForestBuilder::new()),
            elapsed: Duration::ZERO,
            keep,
            entries: Vec::new(),
            label_bits_max: 0,
            nodes: 0,
        }
    }

    /// Builds up to `count` more trees; returns the forest once the pass
    /// has built every tree and assembled them.
    fn step(
        &mut self,
        spec: &Spec,
        seed: u64,
        tr: &mut Tracer,
        count: usize,
    ) -> Option<ForestStore> {
        tr.resume("setup", self.group);
        let builder = self.builder.as_mut().expect("pass still open");
        for _ in 0..count {
            if self.next == spec.trees as u64 {
                break;
            }
            let id = self.next;
            self.next += 1;
            let kind = Kind::of(id);
            let (tree, t_gen) = tr.time("gen.tree", || inputs::make_tree(spec, seed, id));
            let o = tr.begin("setup.build");
            let built = build(tr, &tree, kind);
            let t_build = tr.end(o);
            let (pushed, t_push) = tr.time(
                "forest.push",
                || with_built!(&built, s => builder.push_scheme(id, s).is_ok()),
            );
            assert!(pushed, "corpus ids are distinct");
            self.elapsed += t_gen + t_build + t_push;
            if self.keep {
                self.label_bits_max = self
                    .label_bits_max
                    .max(with_built!(&built, s => s.max_label_bits()));
                self.nodes += tree.len();
                self.entries.push(Entry {
                    id,
                    kind,
                    bank: inputs::bank(&tree, spec.bank, seed, id),
                });
            }
        }
        if self.next < spec.trees as u64 {
            return None;
        }
        let builder = self.builder.take().expect("pass still open");
        let (forest, t_finish) = tr.time("forest.finish", || builder.finish());
        self.elapsed += t_finish;
        Some(forest.expect("a non-empty corpus assembles"))
    }
}

/// Where the churn cycle stands.
enum Stage {
    Build,
    Update(Box<(Entry, Built)>),
    Restart,
    Eager,
}

/// The samples a run collects.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    serve_qps: Vec<f64>,
    batch_us: Vec<f64>,
    /// `(tree id, ms)` of every churn cycle's build.
    builds: Vec<(u64, f64)>,
    update_ms: Vec<f64>,
    first_answer_ms: Vec<f64>,
    open_eager_ms: Vec<f64>,
    scrub_words: u64,
    scrub_secs: f64,
    read_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    crc_mib_per_s: Vec<f64>,
}

struct Engine<'a> {
    spec: &'a Spec,
    seed: u64,
    tr: Tracer,
    forest: ForestStore,
    live: VecDeque<Entry>,
    next_id: u64,
    pool: Vec<Vec<Slot>>,
    cursor: usize,
    scratch: RouteScratch,
    scrubber: Scrubber,
    path: PathBuf,
    setup: Option<SetupPass>,
    setup_crc: (u64, usize),
    stage: Stage,
    s: Samples,
    attempted: u64,
    failed: u64,
    shards: Parallelism,
    // The slice's batches, their expected answers, and the answers to the
    // batch served last.
    queries: Vec<Vec<(u64, usize, usize)>>,
    expect: Vec<Vec<(Kind, u64)>>,
    statuses: Vec<QueryStatus>,
}

impl Engine<'_> {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Materializes the next pooled batches against the current live trees.
    fn next_batches(&mut self) {
        for b in 0..self.spec.batches_per_slice {
            let slots = &self.pool[self.cursor];
            self.cursor = (self.cursor + 1) % self.pool.len();
            let (q, e) = (&mut self.queries[b], &mut self.expect[b]);
            q.clear();
            e.clear();
            for &(rank, idx) in slots {
                let entry = &self.live[rank as usize];
                let p = entry.bank[idx as usize];
                q.push((entry.id, p.u as usize, p.v as usize));
                e.push((entry.kind, p.d));
            }
        }
    }

    /// Counts the answers to batch `b` that the oracle rejects.
    fn check_batch(&mut self, b: usize, got: &[QueryStatus]) {
        let expect = &self.expect[b];
        let bad = expect
            .iter()
            .zip(got)
            .filter(|&(&(kind, d), &st)| !matches!(st, QueryStatus::Ok(x) if kind.accepts(d, x)))
            .count()
            + expect.len().abs_diff(got.len());
        self.attempted += expect.len() as u64;
        if bad > 0 {
            self.failed += bad as u64 - 1;
            self.fail(|| format!("{bad} answers of a batch disagree with the oracle"));
        }
    }

    /// Serves batch `b` serially into `self.statuses`, checks the answers,
    /// and returns the batch time and the allocations made during it (read
    /// inside the span, so that the span record itself does not count).
    fn serve(&mut self, b: usize) -> (Duration, u64) {
        self.statuses.clear();
        let o = self.tr.begin("route.serial");
        let allocs = allocations();
        self.forest.try_route_distances_into(
            &self.queries[b],
            &mut self.scratch,
            &mut self.statuses,
        );
        let allocs = allocations() - allocs;
        let dt = self.tr.end(o);
        let statuses = std::mem::take(&mut self.statuses);
        self.check_batch(b, &statuses);
        self.statuses = statuses;
        (dt, allocs)
    }

    fn serve_slice(&mut self) {
        let mut secs = 0.0;
        let mut queries = 0usize;
        for b in 0..self.spec.batches_per_slice {
            self.tr.group("batch");
            let (dt, allocs) = self.serve(b);
            if allocs != 0 {
                self.fail(|| "serial routing on warmed scratch allocated".into());
            }
            secs += dt.as_secs_f64();
            queries += self.queries[b].len();
            self.s.batch_us.push(dt.as_secs_f64() * 1e6);
            let before = self.scrubber.stats().words_scrubbed;
            let o = self.tr.begin("forest.scrub");
            let outcome = self.forest.scrub(self.spec.scrub_words, &mut self.scrubber);
            self.s.scrub_secs += self.tr.end(o).as_secs_f64();
            self.s.scrub_words += self.scrubber.stats().words_scrubbed - before;
            self.attempted += 1;
            match outcome {
                Ok(ScrubOutcome::InProgress | ScrubOutcome::PassComplete) => {}
                other => self.fail(|| format!("scrub of a clean forest reported {other:?}")),
            }
        }
        self.s.serve_qps.push(queries as f64 / secs);
    }

    /// Untimed: serves every pooled batch once, serially, and — when
    /// `sharded` — through the sharded engine too, which must reproduce the
    /// serial answers bit for bit.
    fn serve_pool(&mut self, sharded: bool) {
        for _ in 0..self.pool.len().div_ceil(self.spec.batches_per_slice) {
            self.next_batches();
            for b in 0..self.spec.batches_per_slice {
                self.serve(b);
                if sharded {
                    let got = self
                        .forest
                        .try_route_distances_sharded(&self.queries[b], self.shards);
                    if got != self.statuses {
                        self.fail(|| "sharded answers differ from serial ones".into());
                    }
                    self.check_batch(b, &got);
                }
            }
        }
    }

    fn setup_slice(&mut self) {
        let mut pass = match self.setup.take() {
            Some(p) => p,
            None => SetupPass::new(&mut self.tr, false),
        };
        match pass.step(
            self.spec,
            self.seed,
            &mut self.tr,
            self.spec.setup_trees_per_slice,
        ) {
            None => self.setup = Some(pass),
            Some(forest) => {
                self.attempted += 1;
                self.s.setup_s.push(pass.elapsed.as_secs_f64());
                let words = forest.as_words();
                if (crc::crc64_words(words), words.len()) != self.setup_crc {
                    self.fail(|| "a repeated set-up built a different forest".into());
                }
            }
        }
    }

    fn cycle_stage(&mut self) {
        self.attempted += 1;
        match std::mem::replace(&mut self.stage, Stage::Build) {
            Stage::Build => {
                self.tr.group("cycle");
                let id = self.next_id;
                self.next_id += 1;
                let kind = Kind::of(id);
                let tree = inputs::make_tree(self.spec, self.seed, id);
                let o = self.tr.begin("cycle.build");
                let built = build(&mut self.tr, &tree, kind);
                let ms = self.tr.end(o).as_secs_f64() * 1e3;
                self.s.builds.push((id, ms));
                let bank = inputs::bank(&tree, self.spec.bank, self.seed, id);
                self.stage = Stage::Update(Box::new((Entry { id, kind, bank }, built)));
            }
            Stage::Update(pending) => {
                let (entry, built) = *pending;
                let oldest = self.live.back().expect("the forest is never empty").id;
                let forest = &mut self.forest;
                let o = self.tr.begin("cycle.update");
                let (appended, _) = self.tr.time(
                    "forest.append",
                    || with_built!(&built, s => forest.append_scheme(entry.id, s)),
                );
                let (tombstoned, _) = self
                    .tr
                    .time("forest.tombstone", || forest.tombstone(oldest));
                self.s.update_ms.push(self.tr.end(o).as_secs_f64() * 1e3);
                if appended.is_err() || tombstoned.is_err() {
                    self.fail(|| format!("update failed: {appended:?} {tombstoned:?}"));
                }
                let probe: Vec<(u64, usize, usize)> = std::iter::once((oldest, 0, 0))
                    .chain(
                        entry
                            .bank
                            .iter()
                            .take(8)
                            .map(|p| (entry.id, p.u as usize, p.v as usize)),
                    )
                    .collect();
                let got = self.forest.try_route_distances(&probe);
                if got[0] != QueryStatus::UnknownTree {
                    self.fail(|| format!("tombstoned tree {oldest} answered {:?}", got[0]));
                }
                for (p, st) in entry.bank.iter().zip(&got[1..]) {
                    if !matches!(*st, QueryStatus::Ok(x) if entry.kind.accepts(p.d, x)) {
                        self.fail(|| format!("appended tree {} answered {st:?}", entry.id));
                    }
                }
                self.live.pop_back();
                self.live.push_front(entry);
                let forest = &mut self.forest;
                let (compacted, _) = self.tr.time("forest.compact", || forest.compact());
                let (published, _) = self
                    .tr
                    .time("forest.publish", || forest.publish(&self.path));
                if let Err(e) = compacted {
                    self.fail(|| format!("compact failed: {e}"));
                }
                if let Err(e) = published {
                    self.fail(|| format!("publish failed: {e}"));
                }
                self.stage = Stage::Restart;
            }
            Stage::Restart => {
                let newest = &self.live[0];
                let p = newest.bank[0];
                let q = [(newest.id, p.u as usize, p.v as usize)];
                let (kind, d) = (newest.kind, p.d);
                let path = &self.path;
                let o = self.tr.begin("cycle.first_answer");
                let (opened, _) = self.tr.time("forest.open_lazy", || {
                    ForestStore::open_with(path, ValidationPolicy::Lazy)
                });
                let answer = opened.as_ref().ok().map(|f| {
                    self.tr
                        .time("forest.first_touch", || f.try_route_distances(&q))
                        .0
                });
                self.s
                    .first_answer_ms
                    .push(self.tr.end(o).as_secs_f64() * 1e3);
                match answer.as_deref() {
                    Some(&[QueryStatus::Ok(x)]) if kind.accepts(d, x) => {}
                    other => self.fail(|| format!("restart's first answer was {other:?}")),
                }
                self.stage = Stage::Eager;
            }
            Stage::Eager => {
                let path = &self.path;
                let o = self.tr.begin("cycle.open_eager");
                let opened = ForestStore::open(path);
                self.s
                    .open_eager_ms
                    .push(self.tr.end(o).as_secs_f64() * 1e3);
                match &opened {
                    Ok(f)
                        if f.tree_count() == self.spec.trees
                            && f.generation() == self.forest.generation() => {}
                    Ok(f) => self.fail(|| {
                        format!(
                            "eager open saw {} trees at generation {}",
                            f.tree_count(),
                            f.generation()
                        )
                    }),
                    Err(e) => self.fail(|| format!("eager open failed: {e}")),
                }
                if self.tr.is_on() {
                    self.open_layers();
                }
            }
        }
    }

    /// Traced only: the layers under an eager open, one at a time.
    fn open_layers(&mut self) {
        let path = &self.path;
        let (bytes, t_read) = self.tr.time("forest.read", || std::fs::read(path));
        self.s.read_ms.push(t_read.as_secs_f64() * 1e3);
        let Ok(bytes) = bytes else {
            return self.fail(|| "reading the published forest failed".into());
        };
        let Ok(lazy) = ForestStore::from_bytes_with(&bytes, ValidationPolicy::Lazy) else {
            return self.fail(|| "the published forest does not parse".into());
        };
        let (verified, t_verify) = self.tr.time("forest.verify", || lazy.verify());
        self.s.verify_ms.push(t_verify.as_secs_f64() * 1e3);
        if let Err(e) = verified {
            self.fail(|| format!("verify of a clean forest failed: {e}"));
        }
        let words = lazy.as_words();
        let (sum, t_crc) = self.tr.time("bits.crc64", || crc::crc64_words(words));
        std::hint::black_box(sum);
        let mib = words.len() as f64 * 8.0 / (1 << 20) as f64;
        self.s.crc_mib_per_s.push(mib / t_crc.as_secs_f64());
    }

    fn round(&mut self) {
        self.next_batches();
        self.serve_slice();
        self.setup_slice();
        self.cycle_stage();
    }
}

/// Runs one workload and returns its outcome.
///
/// # Errors
///
/// An unknown workload name or an unusable work directory.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = Spec::named(&cfg.workload, cfg.tiny).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            cfg.workload,
            inputs::WORKLOADS
        )
    })?;
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let path = cfg.work_dir.join(format!("{}.tlfrst", spec.name));
    let result = run_in(&spec, cfg, &path);
    for p in [path.clone(), path.with_extension("tlfrst.tmp")] {
        let _ = std::fs::remove_file(p);
    }
    result
}

fn run_in(spec: &Spec, cfg: &Config, path: &Path) -> Result<Outcome, String> {
    let mut tr = Tracer::new(cfg.trace);
    let mut first = SetupPass::new(&mut tr, true);
    let forest = first
        .step(spec, cfg.seed, &mut tr, spec.trees)
        .expect("a step over every tree completes the pass");
    let words = forest.as_words();
    let setup_crc = (crc::crc64_words(words), words.len());
    let bytes_per_node = forest.size_bytes() as f64 / first.nodes as f64;
    let label_bits_max = first.label_bits_max as f64;
    let mut live: VecDeque<Entry> = std::mem::take(&mut first.entries).into();
    // Rank 0 is the newest tree.
    live.make_contiguous().reverse();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let k = spec.batches_per_slice;
    let mut e = Engine {
        spec,
        seed: cfg.seed,
        tr,
        forest,
        live,
        next_id: spec.trees as u64,
        pool: inputs::pool(spec, cfg.seed),
        cursor: 0,
        scratch: RouteScratch::new(),
        scrubber: Scrubber::new(),
        path: path.to_path_buf(),
        setup: None,
        setup_crc,
        stage: Stage::Build,
        s: Samples {
            setup_s: vec![first.elapsed.as_secs_f64()],
            ..Samples::default()
        },
        attempted: 1,
        failed: 0,
        shards: Parallelism::from_thread_count(threads.max(2)),
        queries: vec![Vec::with_capacity(spec.batch); k],
        expect: vec![Vec::with_capacity(spec.batch); k],
        statuses: Vec::with_capacity(spec.batch),
    };
    e.forest
        .publish(&e.path)
        .map_err(|err| format!("cannot publish to {}: {err}", e.path.display()))?;

    // Warm-up: one untimed pass over the pool, so the scratch buffers have
    // grown and every batch's answers are checked once before timing starts.
    e.serve_pool(false);
    e.tr = Tracer::new(cfg.trace);

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        e.round();
        round += 1;
    }
    // Finish a started churn cycle so every run ends on whole cycles.
    while !matches!(e.stage, Stage::Build) {
        e.cycle_stage();
    }
    e.serve_pool(true);

    let metrics = if cfg.trace {
        let traced_qps = median(&e.s.serve_qps);
        let probes = probe_layers(&mut e);
        let spans = cfg
            .work_dir
            .join(format!("trace-{}-seed{}.tsv", spec.name, cfg.seed));
        e.tr.write_tsv(&spans)
            .map_err(|err| format!("cannot write {}: {err}", spans.display()))?;
        for (name, t) in e.tr.self_times() {
            eprintln!(
                "perfbench: span {name:<28} count {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            );
        }
        per_layer(&e, traced_qps, probes)
    } else {
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        vec![
            m("setup_s", median(&e.s.setup_s), "s"),
            m("serve_qps", median(&e.s.serve_qps), "1/s"),
            m("batch_p50_us", quantile(&e.s.batch_us, 0.5), "us"),
            m("batch_p95_us", windowed_p95(&e.s.batch_us), "us"),
            m("build_ms", rotation_median(&e.s.builds), "ms"),
            m("update_ms", median(&e.s.update_ms), "ms"),
            m("first_answer_ms", median(&e.s.first_answer_ms), "ms"),
            m("open_eager_ms", median(&e.s.open_eager_ms), "ms"),
            m("bytes_per_node", bytes_per_node, "bytes"),
            m("label_bits_max", label_bits_max, "bits"),
            m("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    };
    eprintln!(
        "perfbench: {} seed {}: {round} rounds, {} batches, {} set-up passes, {} churn cycles",
        spec.name,
        cfg.seed,
        e.s.batch_us.len(),
        e.s.setup_s.len(),
        e.s.builds.len()
    );
    Ok(Outcome {
        correct: e.failed == 0,
        attempted: e.attempted,
        failed: e.failed,
        metrics,
    })
}

/// What the traced probe phase measured.
#[derive(Default)]
struct Probes {
    single_ns: [f64; 6],
    batch_ns: [f64; 6],
    overhead_ns: f64,
    groups_per_batch: f64,
    queries_per_group: f64,
    allocs_per_batch: f64,
    sharded_allocs_per_batch: f64,
}

/// Times the kernel and store layers over every live tree's own pairs, and
/// the routing layer against the store time of the same groups.
fn probe_layers(e: &mut Engine<'_>) -> Probes {
    let mut p = Probes::default();
    e.tr.group("probe");
    let (mut single, mut batch, mut count) = ([0.0f64; 6], [0.0f64; 6], [0usize; 6]);
    // Answers the oracle rejects (and sharded batches that differ from
    // serial ones), out of those checked.
    let (mut bad, mut checked) = (0usize, 0usize);
    let mut out: Vec<u64> = Vec::new();
    for entry in &e.live {
        let view = e.forest.tree(entry.id).expect("live trees resolve");
        let pairs: Vec<(usize, usize)> = entry
            .bank
            .iter()
            .map(|q| (q.u as usize, q.v as usize))
            .collect();
        let (sum, t) = e.tr.time("kernel.single", || {
            pairs
                .iter()
                .fold(0u64, |acc, &(u, v)| acc.wrapping_add(view.distance(u, v)))
        });
        std::hint::black_box(sum);
        let k = entry.kind.index();
        single[k] += t.as_secs_f64();
        out.clear();
        let (_, t) =
            e.tr.time("store.batch", || view.distances_into(&pairs, &mut out));
        batch[k] += t.as_secs_f64();
        count[k] += pairs.len();
        bad += entry
            .bank
            .iter()
            .zip(&out)
            .filter(|&(q, &got)| !entry.kind.accepts(q.d, got))
            .count();
        checked += pairs.len();
    }
    for k in 0..6 {
        p.single_ns[k] = single[k] * 1e9 / count[k].max(1) as f64;
        p.batch_ns[k] = batch[k] * 1e9 / count[k].max(1) as f64;
    }

    // Routing against the store time of the same per-tree groups.
    let batches = e.pool.len().min(32);
    let (mut overhead, mut groups, mut allocs, mut sharded_allocs) =
        (Vec::new(), 0usize, 0u64, 0u64);
    let mut statuses = Vec::with_capacity(e.spec.batch);
    let mut grouped: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
    for _ in 0..batches.div_ceil(e.spec.batches_per_slice) {
        e.next_batches();
        for b in 0..e.spec.batches_per_slice {
            let q = &e.queries[b];
            grouped.clear();
            for &(id, u, v) in q {
                grouped.entry(id).or_default().push((u, v));
            }
            groups += grouped.len();
            statuses.clear();
            let o = e.tr.begin("route.serial");
            let before = allocations();
            e.forest
                .try_route_distances_into(q, &mut e.scratch, &mut statuses);
            allocs += allocations() - before;
            let t_route = e.tr.end(o).as_secs_f64();
            let mut t_store = 0.0;
            for (&id, pairs) in &grouped {
                let view = e.forest.tree(id).expect("live trees resolve");
                out.clear();
                t_store +=
                    e.tr.time("store.batch", || view.distances_into(pairs, &mut out))
                        .1
                        .as_secs_f64();
            }
            overhead.push((t_route - t_store) * 1e9 / q.len() as f64);
            let o = e.tr.begin("route.sharded");
            let before = allocations();
            let got = e.forest.try_route_distances_sharded(q, e.shards);
            sharded_allocs += allocations() - before;
            e.tr.end(o);
            checked += 1;
            bad += usize::from(got != statuses);
            e.check_batch(b, &statuses);
        }
    }
    e.attempted += checked as u64;
    if bad > 0 {
        e.failed += bad as u64 - 1;
        e.fail(|| format!("{bad} probed answers were wrong"));
    }
    let n = (batches.div_ceil(e.spec.batches_per_slice) * e.spec.batches_per_slice) as f64;
    p.overhead_ns = median(&overhead);
    p.groups_per_batch = groups as f64 / n;
    p.queries_per_group = e.spec.batch as f64 / p.groups_per_batch;
    p.allocs_per_batch = allocs as f64 / n;
    p.sharded_allocs_per_batch = sharded_allocs as f64 / n;
    p
}

fn per_layer(e: &Engine<'_>, traced_qps: f64, p: Probes) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut m =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    let setup_ms = |names: &[&str]| {
        let mut totals: Vec<f64> = Vec::new();
        for name in names {
            let per = e.tr.per_group("setup", name);
            if totals.len() < per.len() {
                totals.resize(per.len(), 0.0);
            }
            for (t, x) in totals.iter_mut().zip(per) {
                *t += x;
            }
        }
        median(&totals) * 1e3
    };
    let span_median = |name: &str, scale: f64| median(&e.tr.durations(name)) * scale;
    m("gen.corpus_ms".into(), setup_ms(&["gen.tree"]), "ms");
    for (metric, span) in [
        ("substrate.heavy_paths_ms", "substrate.heavy_paths"),
        ("substrate.aux_labels_ms", "substrate.aux_labels"),
        ("substrate.binarize_ms", "substrate.binarize"),
        ("substrate.depths_ms", "substrate.depths"),
    ] {
        m(metric.into(), setup_ms(&[span]), "ms");
    }
    for kind in Kind::ALL {
        m(
            format!("pack.{}_ms", kind.name()),
            setup_ms(&[pack_span(kind)]),
            "ms",
        );
    }
    m(
        "forest.assemble_ms".into(),
        setup_ms(&["forest.push", "forest.finish"]),
        "ms",
    );
    for kind in Kind::ALL {
        m(
            format!("kernel.{}.single_ns", kind.name()),
            p.single_ns[kind.index()],
            "ns",
        );
    }
    for kind in Kind::ALL {
        m(
            format!("store.{}.batch_ns", kind.name()),
            p.batch_ns[kind.index()],
            "ns",
        );
    }
    m("route.overhead_ns".into(), p.overhead_ns, "ns");
    m("route.groups_per_batch".into(), p.groups_per_batch, "count");
    m(
        "route.queries_per_group".into(),
        p.queries_per_group,
        "count",
    );
    m("route.allocs_per_batch".into(), p.allocs_per_batch, "count");
    m(
        "route.sharded_allocs_per_batch".into(),
        p.sharded_allocs_per_batch,
        "count",
    );
    m("route.traced_qps".into(), traced_qps, "1/s");
    m(
        "forest.open_lazy_ms".into(),
        span_median("forest.open_lazy", 1e3),
        "ms",
    );
    m(
        "forest.first_touch_us".into(),
        span_median("forest.first_touch", 1e6),
        "us",
    );
    m("forest.verify_ms".into(), median(&e.s.verify_ms), "ms");
    m("forest.read_ms".into(), median(&e.s.read_ms), "ms");
    m(
        "bits.crc64_mib_per_s".into(),
        median(&e.s.crc_mib_per_s),
        "MiB/s",
    );
    m(
        "forest.scrub_mib_per_s".into(),
        e.s.scrub_words as f64 * 8.0 / (1 << 20) as f64 / e.s.scrub_secs,
        "MiB/s",
    );
    m(
        "forest.append_ms".into(),
        span_median("forest.append", 1e3),
        "ms",
    );
    m(
        "forest.tombstone_us".into(),
        span_median("forest.tombstone", 1e6),
        "us",
    );
    m(
        "forest.compact_ms".into(),
        span_median("forest.compact", 1e3),
        "ms",
    );
    m(
        "forest.publish_ms".into(),
        span_median("forest.publish", 1e3),
        "ms",
    );
    out
}

/// Serial batches per tail-latency window.
const TAIL_WINDOW: usize = 200;

/// The median over consecutive windows of [`TAIL_WINDOW`] batches of each
/// window's 95th-percentile latency (the plain 95th percentile when the run
/// has fewer batches than one window).  On the reference host 1-3% of
/// batches stall for 3 to 30 ms, more often after a file publish or a
/// thread start-up, and the rate changes with the host's phase: a 99th
/// percentile lands on those stalls and, even windowed, spread 0.30 of its
/// median over ten runs, while the 95th stays below them.
fn windowed_p95(batch_us: &[f64]) -> f64 {
    let p95s: Vec<f64> = batch_us
        .chunks_exact(TAIL_WINDOW)
        .map(|w| quantile(w, 0.95))
        .collect();
    if p95s.is_empty() {
        return quantile(batch_us, 0.95);
    }
    median(&p95s)
}

/// The median over complete scheme rotations (six consecutive tree ids, one
/// per scheme) of the rotation's mean build time, so the figure does not
/// depend on which schemes a run's last few cycles happened to build.  Falls
/// back to the plain median when no rotation is complete.
fn rotation_median(builds: &[(u64, f64)]) -> f64 {
    let mut means = Vec::new();
    for chunk in builds.chunk_by(|a, b| a.0 / 6 == b.0 / 6) {
        if chunk.len() == 6 {
            means.push(chunk.iter().map(|b| b.1).sum::<f64>() / 6.0);
        }
    }
    if means.is_empty() {
        return median(&builds.iter().map(|b| b.1).collect::<Vec<_>>());
    }
    median(&means)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where unreadable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
