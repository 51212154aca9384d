//! The dydbscan benchmark: four closed-loop workloads driven through the
//! library's public API, with output checks against an independent
//! reference and a per-layer trace taken from outside the program.
//!
//! ```text
//! dybench --workload <paper-d3|window-d2|window-sharded-d2|serve-d2>
//!         --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when any check failed. See README.md for the workloads.

mod gen;
mod inproc;
mod oracle;
mod procfs;
mod record;
mod serve;

use dydbscan_serve::proto::{decode_request, encode_request, Request};
use oracle::Clusters;
use procfs::Meter;
use record::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["paper-d3", "window-d2", "window-sharded-d2", "serve-d2"];

/// A run stops starting rounds after this much wall time, whatever
/// `--seconds` asks, so it ends well within three minutes.
const WALL_LIMIT_S: f64 = 120.0;

pub struct Run {
    pub seed: u64,
    seconds: f64,
    started: Instant,
    pub meter: Meter,
    timed_s: f64,
    rounds: u32,
    /// Peak RSS by the end of the first round. Later rounds run on a heap
    /// that earlier rounds' engines have fragmented, which moved the
    /// process-lifetime peak by 20 % between otherwise equal runs.
    first_round_peak_rss_mib: Option<f64>,
}

impl Run {
    /// Runs whole rounds until the timed parts of the rounds add up to
    /// `--seconds`. Round `r` sets up afresh from its own seed, drawn from
    /// `(--seed, r)`, and returns the snapshot's ids-per-alive ratio at its
    /// end. The end-to-end metrics are medians over the rounds.
    pub fn rounds(
        &mut self,
        rec: &mut Recorder,
        mut round: impl FnMut(&mut Recorder, &mut Meter, u64) -> f64,
    ) {
        loop {
            rec.begin_round();
            let before = self.meter.wall_s();
            let round_seed = gen::Rng::derive(self.seed, 1000 + u64::from(self.rounds)).next_u64();
            let ids_per_alive = round(rec, &mut self.meter, round_seed);
            self.timed_s += self.meter.wall_s() - before;
            if self.rounds == 0 {
                self.first_round_peak_rss_mib = procfs::peak_rss_mib();
            }
            self.rounds += 1;
            rec.end_round(ids_per_alive);
            if self.timed_s >= self.seconds
                || self.started.elapsed().as_secs_f64() > WALL_LIMIT_S
                || rec.failed > 0
            {
                break;
            }
        }
    }
}

/// Every queried id is answered exactly once as noise or in at least one
/// group, and nothing else is answered.
pub fn wellformed(q: &[u32], got: &Clusters) -> Result<(), String> {
    let qs: std::collections::HashSet<u32> = q.iter().copied().collect();
    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for &p in got.groups.iter().flatten() {
        if !qs.contains(&p) {
            return Err(format!("id {p} answered but not queried"));
        }
        seen.insert(p);
    }
    for &p in &got.noise {
        if !qs.contains(&p) || !seen.insert(p) {
            return Err(format!("noise id {p} not queried or also in a group"));
        }
    }
    if seen.len() != qs.len() {
        return Err(format!(
            "{} of {} queried ids answered",
            seen.len(),
            qs.len()
        ));
    }
    Ok(())
}

/// Times the public `encode_request`/`decode_request` on a step's own
/// requests, apart from any socket, and checks each round-trips.
pub fn codec_samples(
    rec: &mut Recorder,
    inserts: &[[f64; 2]],
    deletes: &[u32],
    queries: &[Vec<u32>],
) {
    let mut reqs = Vec::with_capacity(queries.len() + 2);
    if !inserts.is_empty() {
        reqs.push(Request::Insert(inserts.to_vec()));
    }
    if !deletes.is_empty() {
        reqs.push(Request::Delete(deletes.to_vec()));
    }
    reqs.extend(queries.iter().map(|q| Request::GroupBy(q.clone())));
    for req in reqs {
        let t = Instant::now();
        let bytes = std::hint::black_box(encode_request(&req));
        let t1 = Instant::now();
        let back = decode_request(&bytes);
        let t2 = Instant::now();
        rec.layer_sample("encode", (t1 - t).as_secs_f64() * 1e6);
        rec.layer_sample("decode", (t2 - t1).as_secs_f64() * 1e6);
        rec.check(
            "request codec round-trips",
            if back.as_ref() == Ok(&req) {
                Ok(())
            } else {
                Err("decoded request differs".into())
            },
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dybench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        started: Instant::now(),
        meter: Meter::default(),
        timed_s: 0.0,
        rounds: 0,
        first_round_peak_rss_mib: None,
    };
    let mut rec = Recorder::new(args.trace);
    let names = match args.workload.as_str() {
        "paper-d3" => {
            inproc::paper_d3(&mut run, &mut rec);
            &inproc::NAMES
        }
        "window-d2" => {
            inproc::window(&mut run, &mut rec, false);
            &inproc::NAMES
        }
        "window-sharded-d2" => {
            inproc::window(&mut run, &mut rec, true);
            &inproc::NAMES
        }
        _ => {
            serve::serve(&mut run, &mut rec);
            &serve::NAMES
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let m = &run.meter;
    println!(
        "env workload={} seed={} nproc={nproc} rounds={} timed_s={:.2} {} {} {}",
        args.workload,
        args.seed,
        run.rounds,
        run.timed_s,
        procfs::show("cpu_ms", m.cpu_ms()),
        procfs::show("runq_wait_ms", m.runq_wait_ms()),
        procfs::show("steal_ms", m.steal_ms()),
    );
    for f in &rec.failures {
        println!("FAILED {f}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        metrics.extend(rec.layer_metrics(names));
        let kpt = rec.update_pts as f64 / 1000.0;
        metrics.push((
            "proc.cpu_ms_per_kpt",
            m.cpu_ms().map_or(0.0, |c| c / kpt),
            "ms/kpt",
        ));
        metrics.push(("proc.steal_ms", m.steal_ms().unwrap_or(0.0), "ms"));
        metrics.push(("proc.runq_wait_ms", m.runq_wait_ms().unwrap_or(0.0), "ms"));
        if let Some(dir) = &args.trace_out {
            let path = dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
            let written = std::fs::create_dir_all(dir).and_then(|()| rec.write_spans(&path));
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written to {}: {e}", path.display()),
            }
        }
    } else {
        for (name, unit) in [
            ("setup_s", "s"),
            ("update_pts_per_s", "pts/s"),
            ("insert_p50_us", "us"),
            ("delete_p50_us", "us"),
            ("visible_p50_us", "us"),
            ("visible_p90_us", "us"),
            ("query_p50_us", "us"),
            ("group_all_p50_us", "us"),
        ] {
            metrics.push((name, rec.across_rounds(name), unit));
        }
        let peak = run.first_round_peak_rss_mib.unwrap_or(0.0);
        metrics.push(("peak_rss_mib", peak, "MiB"));
        println!(
            "median over rounds of each round's p99: insert_us={:.1} delete_us={:.1} visible_us={:.1} query_us={:.1}",
            rec.across_rounds("insert_p99_us"),
            rec.across_rounds("delete_p99_us"),
            rec.across_rounds("visible_p99_us"),
            rec.across_rounds("query_p99_us"),
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<38} {value:>16.4} {unit}");
    }

    let correct = rec.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.attempted.max(1),
        rec.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
