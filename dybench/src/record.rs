//! What a run records: per-call latencies for the end-to-end metrics and,
//! in a traced run, spans and counter deltas for the per-layer metrics.
//!
//! Every call into the program is timed with one `Instant` pair whether or
//! not the run is traced. A traced run additionally keeps a span per call
//! (name, start, end, step, parent) and reads the public counters at the
//! start and end of each traced step. Traced and untraced steps alternate
//! in blocks of ten, so both kinds see the same mix of steps (every tenth
//! step runs `group_all`) and the same growth of state; the gap between
//! their median step times is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Public counters of the engine, read at step boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub range_queries: u64,
    pub edge_ops: u64,
    pub abcp_instances: u64,
    pub cell_scans: u64,
    pub flushes: u64,
    pub refreshes: u64,
    pub relabeled: u64,
}

impl Counters {
    fn delta(self, before: Counters) -> Counters {
        Counters {
            range_queries: self.range_queries - before.range_queries,
            edge_ops: self.edge_ops - before.edge_ops,
            abcp_instances: self.abcp_instances - before.abcp_instances,
            cell_scans: self.cell_scans - before.cell_scans,
            flushes: self.flushes - before.flushes,
            refreshes: self.refreshes - before.refreshes,
            relabeled: self.relabeled - before.relabeled,
        }
    }

    fn add(&mut self, d: Counters) {
        self.range_queries += d.range_queries;
        self.edge_ops += d.edge_ops;
        self.abcp_instances += d.abcp_instances;
        self.cell_scans += d.cell_scans;
        self.flushes += d.flushes;
        self.refreshes += d.refreshes;
        self.relabeled += d.relabeled;
    }
}

struct Span {
    name: &'static str,
    id: u32,
    parent: u32,
    step: u32,
    start_ns: u64,
    end_ns: u64,
    counters: Option<Counters>,
}

/// Quantile by linear interpolation between order statistics; `q` in
/// `[0, 1]`. `None` on no samples.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

pub struct Recorder {
    origin: Instant,
    tracing: bool,
    next_id: u32,
    round_span: u32,
    round_start: Instant,
    step: u32,
    step_span: Option<(u32, Instant, Counters)>,
    spans: Vec<Span>,

    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,

    /// Set-up time of each round, s.
    pub setup_s: Vec<f64>,
    /// This round's samples, µs.
    insert_us: Vec<f64>,
    delete_us: Vec<f64>,
    visible_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub group_all_us: Vec<f64>,
    round_pts: u64,
    round_update_s: f64,
    /// Points inserted plus deleted over the whole run.
    pub update_pts: u64,
    /// Each round's value of each end-to-end metric.
    per_round: BTreeMap<&'static str, Vec<f64>>,

    /// Traced-step samples by layer name, µs.
    layer: BTreeMap<&'static str, Vec<f64>>,
    traced_ctr: Counters,
    traced_pts: u64,
    step_us_traced: Vec<f64>,
    step_us_plain: Vec<f64>,
    growth: Vec<f64>,
    ids_per_alive: Vec<f64>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        let now = Instant::now();
        Recorder {
            origin: now,
            tracing,
            next_id: 1,
            round_span: 0,
            round_start: now,
            step: 0,
            step_span: None,
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            insert_us: Vec::new(),
            delete_us: Vec::new(),
            visible_us: Vec::new(),
            query_us: Vec::new(),
            group_all_us: Vec::new(),
            round_pts: 0,
            round_update_s: 0.0,
            update_pts: 0,
            per_round: BTreeMap::new(),
            layer: BTreeMap::new(),
            traced_ctr: Counters::default(),
            traced_pts: 0,
            step_us_traced: Vec::new(),
            step_us_plain: Vec::new(),
            growth: Vec::new(),
            ids_per_alive: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push_span(
        &mut self,
        (name, id, parent): (&'static str, u32, u32),
        start: Instant,
        end: Instant,
        counters: Option<Counters>,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let step = self.step;
        self.spans.push(Span {
            name,
            id,
            parent,
            step,
            start_ns,
            end_ns,
            counters,
        });
    }

    pub fn begin_round(&mut self) {
        self.round_span = self.next_id;
        self.next_id += 1;
        self.round_start = Instant::now();
    }

    /// Closes a round: its value of each end-to-end metric, its
    /// visible-time growth (median of the last quarter of steps over the
    /// first quarter) and, when traced, its span.
    pub fn end_round(&mut self, ids_per_alive: f64) {
        let values = [
            (
                "update_pts_per_s",
                (self.round_update_s > 0.0).then(|| self.round_pts as f64 / self.round_update_s),
            ),
            ("insert_p50_us", quantile(&self.insert_us, 0.5)),
            ("delete_p50_us", quantile(&self.delete_us, 0.5)),
            ("visible_p50_us", quantile(&self.visible_us, 0.5)),
            ("visible_p90_us", quantile(&self.visible_us, 0.9)),
            ("query_p50_us", quantile(&self.query_us, 0.5)),
            ("group_all_p50_us", quantile(&self.group_all_us, 0.5)),
            ("insert_p99_us", quantile(&self.insert_us, 0.99)),
            ("delete_p99_us", quantile(&self.delete_us, 0.99)),
            ("visible_p99_us", quantile(&self.visible_us, 0.99)),
            ("query_p99_us", quantile(&self.query_us, 0.99)),
        ];
        for (name, v) in values {
            if let Some(v) = v {
                self.per_round.entry(name).or_default().push(v);
            }
        }
        let n = self.visible_us.len();
        if n >= 8 {
            let first = quantile(&self.visible_us[..n / 4], 0.5).expect("non-empty");
            let last = quantile(&self.visible_us[n - n / 4..], 0.5).expect("non-empty");
            self.growth.push(last / first);
        }
        for v in [
            &mut self.insert_us,
            &mut self.delete_us,
            &mut self.visible_us,
            &mut self.query_us,
            &mut self.group_all_us,
        ] {
            v.clear();
        }
        self.round_pts = 0;
        self.round_update_s = 0.0;
        self.ids_per_alive.push(ids_per_alive);
        if self.tracing {
            let id = ("round", self.round_span, 0);
            self.push_span(id, self.round_start, Instant::now(), None);
        }
    }

    /// Whether step `step` (counted within the round) is traced.
    pub fn begin_step(&mut self, step: u32, counters: impl FnOnce() -> Counters) -> bool {
        self.step = step;
        let traced = self.tracing && (step / 10).is_multiple_of(2);
        self.step_span = traced.then(|| {
            let id = self.next_id;
            self.next_id += 1;
            (id, Instant::now(), counters())
        });
        traced
    }

    /// Closes the step; `step_us` is its wall time, `points` the points it
    /// inserted plus deleted.
    pub fn end_step(
        &mut self,
        step_us: f64,
        visible_us: f64,
        points: u64,
        counters: impl FnOnce() -> Counters,
    ) {
        self.visible_us.push(visible_us);
        match self.step_span.take() {
            Some((id, start, before)) => {
                let d = counters().delta(before);
                self.traced_ctr.add(d);
                self.traced_pts += points;
                self.step_us_traced.push(step_us);
                let id = ("step", id, self.round_span);
                self.push_span(id, start, Instant::now(), Some(d));
            }
            None => self.step_us_plain.push(step_us),
        }
    }

    /// Times one call into the program; keeps a span when the step is
    /// traced. Returns the result and the call's duration in µs.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.attempted += 1;
        let us = (t1 - t0).as_secs_f64() * 1e6;
        if let Some((parent, _, _)) = self.step_span {
            let id = self.next_id;
            self.next_id += 1;
            self.push_span((name, id, parent), t0, t1, None);
            self.layer.entry(name).or_default().push(us);
        }
        (r, us)
    }

    /// A per-layer measurement taken after a traced step, outside its step
    /// time (codec timings, in-process replays of the step's queries).
    pub fn layer_sample(&mut self, name: &'static str, us: f64) {
        self.layer.entry(name).or_default().push(us);
    }

    pub fn update(&mut self, insert: bool, us: f64, points: usize) {
        if insert {
            self.insert_us.push(us);
        } else {
            self.delete_us.push(us);
        }
        self.round_pts += points as u64;
        self.update_pts += points as u64;
        self.round_update_s += us / 1e6;
    }

    /// The median over the run's rounds of a metric's per-round values
    /// (`setup_s`: of the rounds' set-up times). Each round is the same
    /// kind of work, so the median across rounds shrugs off a round that a
    /// burst of host contention slowed.
    pub fn across_rounds(&self, name: &str) -> f64 {
        let v = if name == "setup_s" {
            Some(&self.setup_s)
        } else {
            self.per_round.get(name)
        };
        v.and_then(|v| quantile(v, 0.5)).unwrap_or(0.0)
    }

    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(format!("{what}: {e}"));
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    fn layer_q(&self, name: &str, q: f64) -> f64 {
        self.layer
            .get(name)
            .and_then(|v| quantile(v, q))
            .unwrap_or(0.0)
    }

    fn per_kpt(&self, count: u64) -> f64 {
        if self.traced_pts == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.traced_pts as f64
        }
    }

    /// The per-layer metrics of a traced run, by name.
    pub fn layer_metrics(&self, names: &LayerNames) -> Vec<(&'static str, f64, &'static str)> {
        let c = self.traced_ctr;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let overhead = match (
            quantile(&self.step_us_traced, 0.5),
            quantile(&self.step_us_plain, 0.5),
        ) {
            (Some(t), Some(p)) => (t / p - 1.0) * 100.0,
            _ => 0.0,
        };
        vec![
            ("core.insert.p99_us", self.layer_q(names.insert, 0.99), "us"),
            ("core.delete.p99_us", self.layer_q(names.delete, 0.99), "us"),
            (
                "core.range_queries_per_kpt",
                self.per_kpt(c.range_queries),
                "count/kpt",
            ),
            (
                "core.abcp.instances_per_kpt",
                self.per_kpt(c.abcp_instances),
                "count/kpt",
            ),
            (
                "conn.edge_ops_per_kpt",
                self.per_kpt(c.edge_ops),
                "count/kpt",
            ),
            (
                "core.batch.cell_scans_per_flush",
                ratio(c.cell_scans, c.flushes),
                "count",
            ),
            (
                "core.snapshot.refresh_p50_us",
                self.layer_q("snapshot", 0.5),
                "us",
            ),
            (
                "core.snapshot.refresh_p99_us",
                self.layer_q("snapshot", 0.99),
                "us",
            ),
            (
                "core.snapshot.relabeled_per_refresh",
                ratio(c.relabeled, c.refreshes),
                "count",
            ),
            (
                "core.snapshot.ids_per_alive",
                quantile(&self.ids_per_alive, 0.5).unwrap_or(0.0),
                "ratio",
            ),
            (
                "core.visible_growth_ratio",
                quantile(&self.growth, 0.5).unwrap_or(0.0),
                "ratio",
            ),
            (
                "core.snapshot.group_by_p99_us",
                self.layer_q(names.group_by, 0.99),
                "us",
            ),
            (
                "core.snapshot.group_all_p99_us",
                self.layer_q(names.group_all, 0.99),
                "us",
            ),
            (
                "serve.proto.encode_p50_us",
                self.layer_q("encode", 0.5),
                "us",
            ),
            (
                "serve.proto.decode_p50_us",
                self.layer_q("decode", 0.5),
                "us",
            ),
            (
                "serve.handle_load_p50_us",
                self.layer_q("handle_load", 0.5),
                "us",
            ),
            (
                "serve.query_inproc_p50_us",
                self.layer_q("query_inproc", 0.5),
                "us",
            ),
            (
                "serve.feed_p50_us",
                self.layer_q("changed_since", 0.5),
                "us",
            ),
            ("trace.overhead_pct", overhead, "%"),
        ]
    }

    /// Writes the spans as tab-separated lines: id, parent, step, name,
    /// start and end (ns since the run began), then the counter deltas a
    /// step span carries.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tstep\tname\tstart_ns\tend_ns\trange_queries\tedge_ops\tabcp_instances\tcell_scans\tflushes\trefreshes\trelabeled"
        )?;
        for s in &self.spans {
            write!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.step, s.name, s.start_ns, s.end_ns
            )?;
            if let Some(c) = s.counters {
                write!(
                    out,
                    "\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    c.range_queries,
                    c.edge_ops,
                    c.abcp_instances,
                    c.cell_scans,
                    c.flushes,
                    c.refreshes,
                    c.relabeled
                )?;
            }
            writeln!(out)?;
        }
        out.flush()
    }
}

/// The span names a workload uses for its update and query calls (an
/// in-process batch call, a per-op call, or a wire round trip).
pub struct LayerNames {
    pub insert: &'static str,
    pub delete: &'static str,
    pub group_by: &'static str,
    pub group_all: &'static str,
}
