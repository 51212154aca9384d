//! `serve-d2`: the window stream through `dydbscan-serve` on loopback,
//! one client connection, closed loop.

use crate::gen::{self, Rng};
use crate::inproc::{
    resolve, window_checkpoints, window_points, window_queries, BATCH, QUERIES, WINDOW, WINDOW_EPS,
    WINDOW_MIN_PTS,
};
use crate::oracle::{self, Clusters};
use crate::record::{LayerNames, Recorder};
use crate::{codec_samples, wellformed, Run};
use dydbscan_serve::{Client, ClientError, Server, ServerConfig, WireFeed, WireGroups};
use std::collections::VecDeque;
use std::time::Instant;

/// Steps in one round of `serve-d2`.
pub const SERVE_STEPS: usize = 80;

/// On the wire, updates and queries are round trips; the group-by layer
/// metrics come from the same queries replayed on the handle's snapshot.
pub const NAMES: LayerNames = LayerNames {
    insert: "insert_ack",
    delete: "delete_ack",
    group_by: "query_inproc",
    group_all: "group_all_inproc",
};

fn wire(g: &WireGroups) -> Clusters {
    Clusters::normalized(g.groups.clone(), g.noise.clone())
}

/// An answer must come from an epoch at least as new as the last ack.
fn fresh(epoch: u64, acked: u64) -> Result<(), String> {
    if epoch >= acked {
        Ok(())
    } else {
        Err(format!(
            "answered at epoch {epoch}, after epoch {acked} was acked"
        ))
    }
}

pub fn serve(run: &mut Run, rec: &mut Recorder) {
    let steps = SERVE_STEPS;
    let checkpoints = window_checkpoints(steps);
    run.rounds(rec, |rec, meter, seed| {
        let t_setup = Instant::now();
        let stream = gen::window_stream(seed, WINDOW, WINDOW + steps * BATCH);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            eps: WINDOW_EPS,
            min_pts: WINDOW_MIN_PTS,
            rho: 0.0,
            threads: 1,
            shards: 0,
            track_deltas: true,
        };
        let server = match Server::start(cfg) {
            Ok(s) => s,
            Err(e) => {
                rec.fail(format!("server start: {e}"));
                return 0.0;
            }
        };
        let handle = server.epoch_handle();
        let mut client = match Client::connect(server.addr()) {
            Ok(c) => c,
            Err(e) => {
                rec.fail(format!("connect: {e}"));
                server.request_shutdown();
                let _ = server.join();
                return 0.0;
            }
        };
        let mut window: VecDeque<u32> = VecDeque::with_capacity(WINDOW + BATCH);
        let mut acked = 0u64;
        let preload: Result<(), ClientError> =
            stream[..WINDOW].chunks(BATCH).try_for_each(|chunk| {
                let (epoch, ids) = client.insert(chunk)?;
                acked = epoch;
                window.extend(ids);
                Ok(())
            });
        let mut qrng = Rng::derive(seed, 4);
        rec.setup_s.push(t_setup.elapsed().as_secs_f64());
        if let Err(e) = preload {
            rec.fail(format!("preload: {e}"));
        }

        let mut feed_from = acked;
        meter.resume();
        for s in 0..steps {
            if rec.failed > 0 {
                break;
            }
            let batch = &stream[WINDOW + s * BATCH..WINDOW + (s + 1) * BATCH];
            let positions = window_queries(&mut qrng);
            let traced = rec.begin_step(s as u32, Default::default);
            let t0 = Instant::now();
            let (r, us) = rec.call("insert_ack", || client.insert(batch));
            rec.update(true, us, batch.len());
            let (epoch, ids) = match r {
                Ok(v) => v,
                Err(e) => {
                    rec.fail(format!("insert: {e}"));
                    break;
                }
            };
            let ins_fresh = fresh(epoch, acked);
            acked = epoch;
            window.extend(ids);
            let old: Vec<u32> = window.drain(..BATCH).collect();
            let (r, us) = rec.call("delete_ack", || client.delete(&old));
            rec.update(false, us, old.len());
            let del_epoch = match r {
                Ok(e) => e,
                Err(e) => {
                    rec.fail(format!("delete: {e}"));
                    break;
                }
            };
            // The server publishes before it acks: the delete ack is the
            // moment the step is readable.
            let visible = (Instant::now() - t0).as_secs_f64() * 1e6;
            let del_fresh = fresh(del_epoch, acked);
            acked = del_epoch;
            let queries = resolve(&positions, &window);
            let (feed, _) = rec.call("changed_since", || client.changed_since(feed_from));
            let mut answers = Vec::with_capacity(QUERIES);
            for q in &queries {
                let (g, us) = rec.call("group_by_rt", || client.group_by(q));
                rec.query_us.push(us);
                answers.push(g);
            }
            let all = (s % 10 == 0).then(|| {
                let (all, us) = rec.call("group_all_rt", || client.group_all());
                rec.group_all_us.push(us);
                all
            });
            let step_us = (Instant::now() - t0).as_secs_f64() * 1e6;
            rec.end_step(step_us, visible, 2 * BATCH as u64, Default::default);

            meter.pause();
            rec.check("insert ack epoch is monotone", ins_fresh);
            rec.check("delete ack epoch is monotone", del_fresh);
            let gapless = match feed {
                Ok(WireFeed::Delta { from, to, .. }) if from == feed_from && to >= acked => {
                    feed_from = to;
                    Ok(())
                }
                Ok(WireFeed::Delta { from, to, .. }) => Err(format!(
                    "feed span {from}..{to} asked from {feed_from}, acked {acked}"
                )),
                Ok(WireFeed::Reset { oldest, current }) => Err(format!(
                    "feed reset (oldest {oldest}, current {current}) asked from {feed_from}"
                )),
                Err(e) => Err(e.to_string()),
            };
            rec.check("change feed has no gaps", gapless);
            let mut checked = Vec::with_capacity(QUERIES);
            for (q, g) in queries.into_iter().zip(answers) {
                match g {
                    Ok(g) => {
                        rec.check("group_by epoch ≥ last ack", fresh(g.epoch, acked));
                        let got = wire(&g);
                        rec.check("group_by answer is well formed", wellformed(&q, &got));
                        checked.push((q, got, g.epoch));
                    }
                    Err(e) => rec.fail(format!("group_by: {e}")),
                }
            }
            let all = match all {
                Some(Ok(g)) => {
                    rec.check("group_all epoch ≥ last ack", fresh(g.epoch, acked));
                    Some((wire(&g), g.epoch))
                }
                Some(Err(e)) => {
                    rec.fail(format!("group_all: {e}"));
                    None
                }
                None => None,
            };
            if traced {
                let (snap, us) = {
                    let t = Instant::now();
                    let snap = handle.load();
                    (snap, t.elapsed().as_secs_f64() * 1e6)
                };
                rec.layer_sample("handle_load", us);
                for (q, _, _) in &checked {
                    let t = Instant::now();
                    let _ = snap.try_group_by(q);
                    rec.layer_sample("query_inproc", t.elapsed().as_secs_f64() * 1e6);
                }
                if all.is_some() {
                    let t = Instant::now();
                    let _ = snap.group_all();
                    rec.layer_sample("group_all_inproc", t.elapsed().as_secs_f64() * 1e6);
                }
                let qs: Vec<Vec<u32>> = checked.iter().map(|(q, _, _)| q.clone()).collect();
                codec_samples(rec, batch, &old, &qs);
            }
            if checkpoints.contains(&s) {
                if let Some((all, all_epoch)) = &all {
                    for (q, got, epoch) in &checked {
                        let r = if epoch == all_epoch {
                            oracle::same(got, &all.restrict(q))
                        } else {
                            Err(format!(
                                "group_by at epoch {epoch}, group_all at {all_epoch}"
                            ))
                        };
                        rec.check("group_by = group_all restricted to Q", r);
                    }
                    let (pts, labels) = window_points(&stream, s, &window);
                    let want = oracle::dbscan(&pts, &labels, WINDOW_EPS, WINDOW_MIN_PTS);
                    rec.check("group_all = exact DBSCAN", oracle::same(all, &want));
                }
            }
            meter.resume();
        }
        meter.pause();
        let snap = handle.load();
        let ids_per_alive = snap.num_ids() as f64 / snap.len().max(1) as f64;
        drop(snap);
        if client.shutdown().is_err() {
            server.request_shutdown();
        }
        drop(client);
        match server.join() {
            Ok(st) => rec.check(
                "server epochs monotone",
                if st.epochs_monotone {
                    Ok(())
                } else {
                    Err("server reports non-monotone epochs".into())
                },
            ),
            Err(e) => rec.fail(format!("server join: {e}")),
        }
        ids_per_alive
    });
}
