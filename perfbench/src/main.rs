//! `perfbench` — the benchmark binary behind `perfbench/run.py`.
//!
//! Drives the shipped `fews listen` / `fews router` binaries through one
//! workload from one load-generator process (a writer and a reader thread,
//! two connections), checks the drained answers against an in-process
//! single-shard engine, and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`). The last line of
//! stdout is the JSON result; the lines before it are the human report and
//! a `record` line that `run.py compare` reads.

mod layers;
mod load;
mod procs;
mod trace;
mod workload;

use fews_engine::checkpoint::wrap_envelope;
use load::{Counts, Traffic};
use procs::{connect, copy_dir, fresh_dir, Launcher};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{median, summary, Tracer};
use workload::{Oracle, Spec, Stream};

/// A latency median over fewer samples than this in a run is flagged as
/// unsound (the `low_queries` rule of `experiments net`).
const SAMPLE_FLOOR: usize = 20;

/// Longest a launch may take to answer its first read-your-writes query.
const SETUP_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fews: PathBuf,
    work: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("--{k} needs a number"))
    };
    let args = Args {
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed needs a whole number".to_string())?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        fews: PathBuf::from(get("fews")?),
        work: PathBuf::from(get("work")?),
        commit: map
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The host a result was measured on.
fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"commit\": {}, \"available_parallelism\": {cores}, \"cpu\": {}, \"kernel\": {}, \
         \"seed\": {}, \"seconds\": {}}}",
        json_str(&args.commit),
        json_str(&cpu),
        json_str(&kernel),
        args.seed,
        args.seconds
    )
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Write the base state into `dir`: launch the topology on an empty data
/// dir, restore the base checkpoint through the front, and shut down (a
/// graceful shutdown leaves a compacted checkpoint behind).
fn prepare_base(
    launcher: &mut Launcher,
    spec: &Spec,
    oracle: &Oracle,
    dir: &Path,
) -> Result<(), String> {
    fresh_dir(dir).map_err(|e| format!("base dir: {e}"))?;
    let topo = launcher
        .launch(spec, Some(dir))
        .map_err(|e| format!("launch for base state: {e}"))?;
    let restored = (|| -> Result<(), fews_net::ClientError> {
        let mut c = connect(topo.front)?;
        c.restore(&wrap_envelope("default", 0, &oracle.base_checkpoint))?;
        Ok(())
    })();
    topo.stop();
    restored.map_err(|e| format!("restore base state: {e}"))
}

/// Launch the topology on a fresh copy of the base state and time it until
/// its first read-your-writes answer equals the base state's.
fn launch_ready(
    launcher: &mut Launcher,
    spec: &Spec,
    oracle: &Oracle,
    base: &Path,
    dir: &Path,
) -> Result<(procs::Topology, f64), String> {
    fresh_dir(dir).map_err(|e| format!("data dir: {e}"))?;
    copy_dir(base, dir).map_err(|e| format!("copy base state: {e}"))?;
    let t0 = Instant::now();
    let topo = launcher
        .launch(spec, Some(dir))
        .map_err(|e| format!("launch: {e}"))?;
    let ready = (|| -> Result<(), String> {
        let mut c = connect(topo.front).map_err(|e| format!("connect: {e}"))?;
        loop {
            let top = c.top(3).map_err(|e| format!("first query: {e}"))?;
            if top == oracle.base_top {
                return Ok(());
            }
            if t0.elapsed() > SETUP_LIMIT {
                return Err("launch never answered the base state".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    })();
    let elapsed = t0.elapsed().as_secs_f64();
    match ready {
        Ok(()) => Ok((topo, elapsed)),
        Err(e) => {
            topo.stop();
            Err(e)
        }
    }
}

/// One traffic pass on a fresh launch from the base state.
struct Pass {
    traffic: Traffic,
    setup_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    launcher: &mut Launcher,
    spec: &Spec,
    stream: &Stream,
    oracle: &Oracle,
    base: &Path,
    frames: u64,
    traced: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let dir = launcher.work.join("data");
    let (topo, setup_s) = launch_ready(launcher, spec, oracle, base, &dir)?;
    let traffic = load::run(spec, stream, topo.front, frames, traced, epoch);
    topo.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass { traffic, setup_s })
}

fn pooled(passes: &[&Pass], f: impl Fn(&Traffic) -> &Vec<f64>) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| f(&p.traffic).iter().copied())
        .collect()
}

fn per_pass(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(|p| f(p)).collect()
}

/// The end-to-end metrics over a run's passes: rates and sizes are the
/// median of the per-pass values, latencies the median of every sample.
fn end_to_end(passes: &[&Pass]) -> Vec<(&'static str, Vec<f64>, &'static str)> {
    vec![
        (
            "ingest_rate",
            per_pass(passes, |p| {
                p.traffic.updates_acked as f64 / p.traffic.ingest_secs
            }),
            "upd/s",
        ),
        ("ack_p50_ms", pooled(passes, |t| &t.ack_ms), "ms"),
        ("fresh_p50_ms", pooled(passes, |t| &t.fresh_ms), "ms"),
        (
            "query_rate",
            per_pass(passes, |p| {
                p.traffic.reader_queries as f64 / p.traffic.reader_secs
            }),
            "queries/s",
        ),
        ("top_p50_ms", pooled(passes, |t| &t.top_ms), "ms"),
        ("setup_s", per_pass(passes, |p| p.setup_s), "s"),
        (
            "state_bytes",
            per_pass(passes, |p| p.traffic.state_bytes as f64),
            "bytes",
        ),
    ]
}

/// Check a pass against the oracle; returns the reasons it is wrong.
fn check(t: &Traffic, oracle: &Oracle) -> Vec<String> {
    let mut wrong = Vec::new();
    if let Some(e) = &t.error {
        wrong.push(e.clone());
    }
    if t.updates_acked != oracle.updates {
        wrong.push(format!(
            "acked {} of {} updates",
            t.updates_acked, oracle.updates
        ));
    }
    match &t.answers {
        Some(a) if *a == oracle.answers => {}
        Some(a) => {
            if a.certified != oracle.answers.certified {
                wrong.push("certified differs from the oracle".into());
            }
            if a.top != oracle.answers.top {
                wrong.push("top 10 differs from the oracle".into());
            }
            if a.certify != oracle.answers.certify {
                wrong.push("certify of the top 10 differs from the oracle".into());
            }
        }
        None => wrong.push("no answers after the drain".into()),
    }
    wrong
}

/// Print one pass's line; flag it when its reader fell behind schedule.
fn report_pass(label: &str, spec: &Spec, p: &Pass) -> Option<String> {
    let t = &p.traffic;
    let late_p50 = median(&t.lateness_ms);
    let late_max = t.lateness_ms.iter().copied().fold(0.0, f64::max);
    println!(
        "{label}: setup {:.4} s | {} frames ({} updates) in {:.3} s | reader {} queries in \
         {:.3} s, lateness p50 {late_p50:.3} ms max {late_max:.3} ms over {} starts | \
         state {} bytes",
        p.setup_s,
        t.ack_ms.len(),
        t.updates_acked,
        t.ingest_secs,
        t.reader_queries,
        t.reader_secs,
        t.lateness_ms.len(),
        t.state_bytes
    );
    let period_ms = 1e3 / spec.reader_hz;
    (late_p50 > period_ms / 2.0).then(|| format!("{label}.behind_schedule"))
}

fn report_counts(c: &Counts) {
    let attempted = c.total_attempted();
    let failed = c.total_failed();
    println!(
        "requests: attempted {:?} failed {:?} failed_frac {}",
        c.attempted,
        c.failed,
        failed as f64 / attempted.max(1) as f64
    );
}

fn run(args: &Args) -> Result<(), String> {
    let spec = Spec::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            Spec::NAMES.join(", ")
        )
    })?;
    if !args.fews.is_file() {
        return Err(format!("no fews binary at {}", args.fews.display()));
    }
    let work = args.work.join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    fresh_dir(&work).map_err(|e| format!("work dir {}: {e}", work.display()))?;
    let result = run_in(args, &spec, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, spec: &Spec, work: &Path) -> Result<(), String> {
    let epoch = Instant::now();
    let prov = provenance(args);
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance {prov}");
    let mut launcher = Launcher::new(args.fews.clone(), work.to_path_buf());
    let stream = Stream::new(spec.model, args.seed);
    // The run's seconds are split over its passes; a traced run alternates
    // untraced and traced passes.
    let passes = if args.trace {
        2 * spec.passes
    } else {
        spec.passes
    };
    let frames = spec.frames(args.seconds / passes as f64);
    let t = Instant::now();
    let oracle = workload::oracle(spec, &stream, frames * spec.frame as u64);
    println!(
        "oracle: {} base + {} updates in {:.3} s",
        spec.base_updates,
        oracle.updates,
        t.elapsed().as_secs_f64()
    );
    let base = work.join("base");
    prepare_base(&mut launcher, spec, &oracle, &base)?;

    let mut runs = Vec::with_capacity(passes);
    let mut wrong = Vec::new();
    let mut flags = Vec::new();
    let mut counts = Counts::default();
    for i in 0..passes {
        let traced = args.trace && i % 2 == 1;
        let p = run_pass(
            &mut launcher,
            spec,
            &stream,
            &oracle,
            &base,
            frames,
            traced,
            epoch,
        )?;
        let label = format!("pass{i}{}", if traced { ".traced" } else { "" });
        wrong.extend(
            check(&p.traffic, &oracle)
                .into_iter()
                .map(|w| format!("{label}: {w}")),
        );
        flags.extend(report_pass(&label, spec, &p));
        counts.merge(&p.traffic.counts);
        runs.push(p);
    }
    let plain: Vec<&Pass> = runs
        .iter()
        .step_by(if args.trace { 2 } else { 1 })
        .collect();
    report_counts(&counts);
    let e2e = end_to_end(&plain);
    for (name, xs, unit) in &e2e {
        println!("{name} {unit}: {}", summary(xs));
        if name.ends_with("_ms") && xs.len() < SAMPLE_FLOOR {
            flags.push(format!("low_samples.{name}"));
        }
    }

    let metrics: Vec<(String, f64, String)> = if args.trace {
        let traced: Vec<&Pass> = runs.iter().skip(1).step_by(2).collect();
        per_layer(
            args,
            spec,
            &stream,
            &oracle,
            &plain,
            &traced,
            &mut launcher,
            epoch,
        )?
    } else {
        e2e.iter()
            .map(|(name, xs, unit)| (name.to_string(), median(xs), unit.to_string()))
            .collect()
    };
    let correct = wrong.is_empty();
    for w in &wrong {
        println!("WRONG: {w}");
    }
    if !flags.is_empty() {
        println!("FLAGGED: {}", flags.join(" "));
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    let (attempted, failed) = (counts.total_attempted(), counts.total_failed());
    let flags_json: Vec<String> = flags.iter().map(|f| json_str(f)).collect();
    println!(
        "record {{\"workload\": {}, \"trace\": {}, \"provenance\": {prov}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"flags\": [{}], \"metrics\": {{{}}}}}",
        json_str(spec.name),
        args.trace as u8,
        flags_json.join(", "),
        metrics_json.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics_json.join(", ")
    );
    Ok(())
}

/// The traced run's per-layer metrics (p50 of each layer's samples), with
/// p99 and sample counts in the report, the tracing overhead and the share
/// of the end-to-end median no blocking-path layer accounts for.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    spec: &Spec,
    stream: &Stream,
    oracle: &Oracle,
    plain: &[&Pass],
    traced: &[&Pass],
    launcher: &mut Launcher,
    epoch: Instant,
) -> Result<Vec<(String, f64, String)>, String> {
    let budget = Duration::from_secs_f64((args.seconds / 4.0).clamp(1.0, 6.0));
    let mut replay_tracer = Tracer::new(true, epoch, "replay");
    let mut samples = layers::replay_node(
        spec,
        stream,
        &oracle.base_checkpoint,
        spec.frames(args.seconds),
        budget,
        &launcher.work,
        &mut replay_tracer,
    )
    .map_err(|e| format!("layer replay: {e}"))?;
    samples.extend(layers::probe_core(spec, stream, args.seed, budget));
    samples.extend(layers::probe_router(spec, stream, launcher, 30).map_err(|e| e.to_string())?);

    // The client side of the frame path, from the traced pass's spans.
    for tr in traced.iter().flat_map(|p| &p.traffic.tracers) {
        let selfs = tr.self_times();
        for (span, metric) in [
            ("client.ingest_send", "net.send_us"),
            ("client.ingest_ack", "net.ack_wait_us"),
        ] {
            if let Some(xs) = selfs.get(span) {
                samples
                    .entry(metric)
                    .or_default()
                    .extend(xs.iter().map(|x| x * 1e-3));
            }
        }
    }

    let p50 = |name: &str| samples.get(name).map_or(f64::NAN, |xs| median(xs));
    // The blocking path of an ingest ack: frame I/O (the idle round trip),
    // decode, WAL append, apply hand-off and fsync, plus the hop when
    // routed. Its share of the ack median that no layer accounts for is
    // the reconciliation.
    let mut blocking = (p50("net.ping_us")
        + p50("proto.ingest_decode_us")
        + p50("wal.append_us")
        + p50("engine.ingest_us"))
        * 1e-3
        + p50("wal.sync_ms");
    if spec.routed {
        blocking += p50("router.hop_ack_ms");
    }
    let e2e_plain = median(&pooled(plain, |t| &t.ack_ms));
    let e2e_traced = median(&pooled(traced, |t| &t.ack_ms));
    samples.insert("trace.overhead_share", vec![e2e_traced / e2e_plain - 1.0]);
    samples.insert("unaccounted_share", vec![1.0 - blocking / e2e_traced]);

    let spans = launcher
        .work
        .parent()
        .unwrap_or(&launcher.work)
        .join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
    let mut tracers: Vec<&Tracer> = traced.iter().flat_map(|p| &p.traffic.tracers).collect();
    tracers.push(&replay_tracer);
    trace::write_spans(&spans, &tracers).map_err(|e| format!("write spans: {e}"))?;
    println!("spans written to {}", spans.display());

    let mut out = Vec::new();
    for (name, unit) in LAYER_METRICS {
        let xs = samples
            .get(name)
            .ok_or_else(|| format!("layer metric {name} was not measured"))?;
        println!("layer {name} {unit}: {}", summary(xs));
        out.push((name.to_string(), median(xs), unit.to_string()));
    }
    Ok(out)
}

/// Every per-layer metric, in `BENCHMARK.json` order.
const LAYER_METRICS: [(&str, &str); 32] = [
    ("bank.update_ns", "ns"),
    ("bank.decode_us", "us"),
    ("core.io_push_ns", "ns"),
    ("core.id_pool_ms", "ms"),
    ("engine.ingest_us", "us"),
    ("engine.refresh_begin_us", "us"),
    ("engine.refresh_barrier_ms", "ms"),
    ("engine.refresh_install_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.checkpoint_bytes", "bytes"),
    ("engine.restore_ms", "ms"),
    ("view.top_us", "us"),
    ("view.certify_us", "us"),
    ("view.certified_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("wal.bytes_per_update", "bytes/update"),
    ("wal.recover_ms", "ms"),
    ("proto.ingest_encode_us", "us"),
    ("proto.ingest_decode_us", "us"),
    ("proto.bytes_per_update", "bytes/update"),
    ("proto.answer_encode_us", "us"),
    ("proto.answer_decode_us", "us"),
    ("net.ping_us", "us"),
    ("net.send_us", "us"),
    ("net.ack_wait_us", "us"),
    ("router.hop_ping_us", "us"),
    ("router.hop_ack_ms", "ms"),
    ("router.view_pull_ms", "ms"),
    ("router.slice_checkpoint_ms", "ms"),
    ("trace.overhead_share", "fraction"),
    ("unaccounted_share", "fraction"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
