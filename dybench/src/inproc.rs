//! The in-process workloads: `paper-d3` (per-op updates, ρ-approximate)
//! and `window-d2` / `window-sharded-d2` (batched sliding window, exact).

use crate::gen::{self, Rng, Update};
use crate::oracle::{self, Clusters};
use crate::record::{Counters, LayerNames, Recorder};
use crate::{codec_samples, wellformed, Run};
use dydbscan::core::{DynamicClusterer, FullDynDbscan, Params};
use dydbscan::{Clustering, DbscanBuilder};
use std::collections::VecDeque;
use std::time::Instant;

/// One engine under test: the plain fully-dynamic engine (whose aBCP
/// counters are public) or whatever the builder made.
enum Engine<const D: usize> {
    Full(Box<FullDynDbscan<D>>),
    Built(Box<dyn DynamicClusterer<D>>),
}

impl<const D: usize> Engine<D> {
    fn api(&mut self) -> &mut dyn DynamicClusterer<D> {
        match self {
            Engine::Full(e) => e.as_mut(),
            Engine::Built(e) => e.as_mut(),
        }
    }

    fn read(&self) -> &dyn DynamicClusterer<D> {
        match self {
            Engine::Full(e) => e.as_ref(),
            Engine::Built(e) => e.as_ref(),
        }
    }

    fn counters(&self) -> Counters {
        let s = self.read().stats();
        let abcp = match self {
            Engine::Full(e) => {
                let f = e.stats();
                f.instances_created + f.instances_destroyed
            }
            Engine::Built(_) => 0,
        };
        Counters {
            range_queries: s.range_queries,
            edge_ops: s.edge_inserts + s.edge_removes,
            abcp_instances: abcp,
            cell_scans: s.batch_cell_scans,
            flushes: s.batch_flushes,
            refreshes: s.snapshot_refreshes,
            relabeled: s.snapshot_cells_relabeled,
        }
    }
}

pub fn to_clusters(g: &Clustering) -> Clusters {
    Clusters::normalized(g.groups.clone(), g.noise.clone())
}

/// The names of the in-process calls, for the per-layer metrics.
pub const NAMES: LayerNames = LayerNames {
    insert: "insert",
    delete: "delete",
    group_by: "group_by",
    group_all: "group_all",
};

/// The restriction law at a checkpoint: every `group_by` of the step
/// equals the same snapshot's `group_all` restricted to its `Q`.
pub fn check_restriction(rec: &mut Recorder, all: &Clusters, answers: &[(Vec<u32>, Clusters)]) {
    for (q, got) in answers {
        rec.check(
            "group_by = group_all restricted to Q",
            oracle::same(got, &all.restrict(q)),
        );
    }
}

// ---------------------------------------------------------------- paper-d3

pub const PAPER_EPS: f64 = 300.0;
pub const PAPER_MIN_PTS: usize = 10;
pub const PAPER_RHO: f64 = 0.001;
/// Updates in one round of `paper-d3`, starting from an empty engine.
pub const PAPER_UPDATES: usize = 60_000;
/// Updates between two read boundaries.
pub const PAPER_BOUNDARY: usize = 100;

pub fn paper_d3(run: &mut Run, rec: &mut Recorder) {
    let boundaries = PAPER_UPDATES / PAPER_BOUNDARY;
    let checkpoints = [boundaries / 2 / 10 * 10, boundaries - 10];
    run.rounds(rec, |rec, meter, seed| {
        let t_setup = Instant::now();
        let stream = gen::paper_stream::<3>(seed, PAPER_UPDATES, 5.0 / 6.0);
        let params = Params::new(PAPER_EPS, PAPER_MIN_PTS).with_rho(PAPER_RHO);
        let mut engine = Engine::Full(Box::new(FullDynDbscan::<3>::new(params).with_threads(1)));
        let mut qrng = Rng::derive(seed, 5);
        rec.setup_s.push(t_setup.elapsed().as_secs_f64());

        // Insertion ordinal -> id, and the alive ordinals for sampling Q.
        let mut ids: Vec<u32> = Vec::with_capacity(stream.points.len());
        let mut alive: Vec<usize> = Vec::new();
        let mut slot: Vec<usize> = vec![usize::MAX; stream.points.len()];
        meter.resume();
        for (b, chunk) in stream.updates.chunks(PAPER_BOUNDARY).enumerate() {
            let traced = rec.begin_step(b as u32, || engine.counters());
            let t0 = Instant::now();
            for &u in chunk {
                match u {
                    Update::Insert(o) => {
                        let p = stream.points[o];
                        let (id, us) = rec.call("insert", || engine.api().insert(p));
                        rec.update(true, us, 1);
                        ids.push(id);
                        slot[o] = alive.len();
                        alive.push(o);
                    }
                    Update::Delete(o) => {
                        let id = ids[o];
                        let ((), us) = rec.call("delete", || engine.api().delete(id));
                        rec.update(false, us, 1);
                        let i = slot[o];
                        alive.swap_remove(i);
                        if i < alive.len() {
                            slot[alive[i]] = i;
                        }
                    }
                }
            }
            let (snap, _) = rec.call("snapshot", || engine.read().snapshot());
            let visible = (Instant::now() - t0).as_secs_f64() * 1e6;
            // Q is drawn while the clock runs but outside every timed call.
            let k = 2 + qrng.below(99);
            let q: Vec<u32> = qrng
                .sample(alive.len(), k)
                .into_iter()
                .map(|i| ids[alive[i]])
                .collect();
            let (g, q_us) = rec.call("group_by", || snap.try_group_by(&q));
            rec.query_us.push(q_us);
            let all = (b % 10 == 0).then(|| {
                let (all, us) = rec.call("group_all", || engine.read().group_all());
                rec.group_all_us.push(us);
                all
            });
            let step_us = (Instant::now() - t0).as_secs_f64() * 1e6;
            rec.end_step(step_us, visible, chunk.len() as u64, || engine.counters());

            meter.pause();
            let got = match g {
                Ok(g) => to_clusters(&g),
                Err(e) => {
                    rec.fail(format!("group_by failed: {e}"));
                    Clusters::default()
                }
            };
            rec.check("group_by answer is well formed", wellformed(&q, &got));
            if traced {
                // In process, the query on the snapshot is the whole query.
                rec.layer_sample("query_inproc", q_us);
                codec_samples(rec, &[], &[], std::slice::from_ref(&q));
            }
            if checkpoints.contains(&b) {
                let all = to_clusters(&all.expect("checkpoints fall on group_all boundaries"));
                check_restriction(rec, &all, &[(q, got)]);
                let pts: Vec<[f64; 3]> = alive.iter().map(|&o| stream.points[o]).collect();
                let labels: Vec<u32> = alive.iter().map(|&o| ids[o]).collect();
                let lo = oracle::dbscan(&pts, &labels, PAPER_EPS, PAPER_MIN_PTS);
                let hi =
                    oracle::dbscan(&pts, &labels, PAPER_EPS * (1.0 + PAPER_RHO), PAPER_MIN_PTS);
                rec.check(
                    "sandwich C(eps) ⊑ C ⊑ C((1+rho)eps)",
                    oracle::sandwich(&all, &lo, &hi),
                );
            }
            meter.resume();
        }
        meter.pause();
        let snap = engine.read().snapshot();
        snap.num_ids() as f64 / snap.len().max(1) as f64
    });
}

// ------------------------------------------------------------ window-d2 (+sharded)

pub const WINDOW: usize = 1 << 16;
pub const BATCH: usize = 1024;
pub const WINDOW_EPS: f64 = 200.0;
pub const WINDOW_MIN_PTS: usize = 10;
/// Queries per window step.
pub const QUERIES: usize = 16;
/// Steps in one round of the in-process window workloads.
pub const WINDOW_STEPS: usize = 300;

/// The `|Q| ~ U[2,100]` query sets of one step, as positions in the
/// window; drawn before the step, resolved to ids after its updates.
pub fn window_queries(qrng: &mut Rng) -> Vec<Vec<usize>> {
    (0..QUERIES)
        .map(|_| {
            let k = 2 + qrng.below(99);
            qrng.sample(WINDOW, k)
        })
        .collect()
}

pub fn resolve(positions: &[Vec<usize>], window: &VecDeque<u32>) -> Vec<Vec<u32>> {
    positions
        .iter()
        .map(|ps| ps.iter().map(|&i| window[i]).collect())
        .collect()
}

/// The two checkpoint steps of a window round: mid-way and near the end,
/// both on `group_all` steps.
pub fn window_checkpoints(steps: usize) -> [usize; 2] {
    [steps / 2 / 10 * 10, (steps - 1) / 10 * 10]
}

pub fn window(run: &mut Run, rec: &mut Recorder, sharded: bool) {
    let steps = WINDOW_STEPS;
    let checkpoints = window_checkpoints(steps);
    run.rounds(rec, |rec, meter, seed| {
        let t_setup = Instant::now();
        let stream = gen::window_stream(seed, WINDOW, WINDOW + steps * BATCH);
        let mut engine = if sharded {
            let b = DbscanBuilder::new(WINDOW_EPS, WINDOW_MIN_PTS)
                .shards(2)
                .threads(1);
            Engine::Built(b.build::<2>().expect("valid configuration"))
        } else {
            let params = Params::new(WINDOW_EPS, WINDOW_MIN_PTS);
            Engine::Full(Box::new(FullDynDbscan::<2>::new(params).with_threads(1)))
        };
        let mut window: VecDeque<u32> = VecDeque::with_capacity(WINDOW + BATCH);
        for chunk in stream[..WINDOW].chunks(BATCH) {
            window.extend(engine.api().insert_batch(chunk));
        }
        engine.read().snapshot();
        let mut qrng = Rng::derive(seed, 4);
        rec.setup_s.push(t_setup.elapsed().as_secs_f64());

        meter.resume();
        for s in 0..steps {
            let batch = &stream[WINDOW + s * BATCH..WINDOW + (s + 1) * BATCH];
            let positions = window_queries(&mut qrng);
            let traced = rec.begin_step(s as u32, || engine.counters());
            let t0 = Instant::now();
            let (new_ids, us) = rec.call("insert", || engine.api().insert_batch(batch));
            rec.update(true, us, batch.len());
            window.extend(new_ids);
            let old: Vec<u32> = window.drain(..BATCH).collect();
            let ((), us) = rec.call("delete", || engine.api().delete_batch(&old));
            rec.update(false, us, old.len());
            let (snap, _) = rec.call("snapshot", || engine.read().snapshot());
            let visible = (Instant::now() - t0).as_secs_f64() * 1e6;
            let queries = resolve(&positions, &window);
            let mut answers = Vec::with_capacity(QUERIES);
            for q in &queries {
                let (g, us) = rec.call("group_by", || snap.try_group_by(q));
                rec.query_us.push(us);
                answers.push((g, us));
            }
            let all = (s % 10 == 0).then(|| {
                let (all, us) = rec.call("group_all", || engine.read().group_all());
                rec.group_all_us.push(us);
                all
            });
            let step_us = (Instant::now() - t0).as_secs_f64() * 1e6;
            rec.end_step(step_us, visible, 2 * BATCH as u64, || engine.counters());

            meter.pause();
            let mut checked = Vec::with_capacity(QUERIES);
            for (q, (g, us)) in queries.into_iter().zip(answers) {
                if traced {
                    // In process, the query on the snapshot is the whole query.
                    rec.layer_sample("query_inproc", us);
                }
                match g {
                    Ok(g) => {
                        let got = to_clusters(&g);
                        rec.check("group_by answer is well formed", wellformed(&q, &got));
                        checked.push((q, got));
                    }
                    Err(e) => rec.fail(format!("group_by failed: {e}")),
                }
            }
            if traced {
                let qs: Vec<Vec<u32>> = checked.iter().map(|(q, _)| q.clone()).collect();
                codec_samples(rec, batch, &old, &qs);
            }
            if checkpoints.contains(&s) {
                let all = to_clusters(&all.expect("checkpoints fall on group_all steps"));
                check_restriction(rec, &all, &checked);
                let (pts, labels) = window_points(&stream, s, &window);
                let want = oracle::dbscan(&pts, &labels, WINDOW_EPS, WINDOW_MIN_PTS);
                rec.check("group_all = exact DBSCAN", oracle::same(&all, &want));
            }
            meter.resume();
        }
        meter.pause();
        let snap = engine.read().snapshot();
        snap.num_ids() as f64 / snap.len().max(1) as f64
    });
}

/// The window's points after step `s`, labelled with their ids (the
/// window holds stream positions `(s+1)·BATCH .. (s+1)·BATCH + WINDOW`
/// in order).
pub fn window_points(
    stream: &[[f64; 2]],
    s: usize,
    window: &VecDeque<u32>,
) -> (Vec<[f64; 2]>, Vec<u32>) {
    let first = (s + 1) * BATCH;
    let pts = stream[first..first + WINDOW].to_vec();
    (pts, window.iter().copied().collect())
}
