//! `fews` — command-line front end for the FEwW reproduction.
//!
//! ```text
//! fews generate <planted|zipf|dos|dblog> [--key value …] --out FILE
//! fews stats FILE [--n N]
//! fews run FILE --n N --d D [--alpha A] [--model io|id] [--seed S] [--scale X]
//! fews listen --addr A --n N --d D [--shards K] [--model io|id] [--replay FILE]
//!             [--data-dir DIR] [--compact-bytes N] [--max-conns C]
//!             [--inflight-updates U] [--lag-budget L] …
//! fews router --addr A --workers H1:P1,H2:P2,… --n N --d D [--model io|id]
//!             [--replicas R] [--data-dir DIR] [--max-conns C] [--timeout-ms T]
//!             [--retries R] …
//! fews client ADDR [--space S] [--timeout-ms T] [--retries R] [--stale]
//!                  <certified|certify V|top K|stats|ping|ingest FILE|checkpoint OUT|
//!                   restore FILE|create-space NAME …|drop-space NAME|list-spaces|
//!                   join-worker ADDR|shutdown>
//! ```
//!
//! `--data-dir DIR` makes `listen` durable: every space write-ahead-logs
//! acknowledged ingest batches (fsync before ack) and is recovered on
//! restart by checkpoint restore + WAL replay. `--space S` addresses any
//! data command at tenant space `S` (default: the default space).
//!
//! Client reads are read-your-writes by default: every `ingest` ack carries
//! a watermark and subsequent queries on the same client wait until the
//! server's published snapshot covers it. `--stale` opts the connection out
//! and answers immediately from the latest published snapshot.
//!
//! Overload protection: `--max-conns C` caps concurrent connections on
//! `listen` and `router` alike (excess dials are shed with a typed
//! `overloaded` error and a retry-after hint), `--inflight-updates U`
//! bounds un-acked ingest per space, and `--lag-budget L` fails fresh
//! reads fast once the published snapshot trails acked ingest by more
//! than `L` records (`--stale` reads keep answering). On the client,
//! `--overload-retries O` retries shed requests after the server's hint,
//! and `--resend` opts ingest into resending after an *indeterminate*
//! transport failure — safe only for idempotent streams, since the lost
//! ack may have been applied.
//!
//! `fews router` starts a cluster coordinator over running `fews listen`
//! workers: ingest fans out to every partition's `--replicas R` owners
//! (default 2 — queries survive a worker loss with no pause), each query
//! is pushed down to the workers reading its partitions and their answers
//! merged, and a worker that dies is revived
//! by checkpoint handoff in the background — the cluster's answers stay
//! byte-identical to a single node's. `--data-dir DIR` makes the router
//! itself durable: acked ingest is fsynced to a WAL before the ack, and a
//! killed router restarts bit-exact from DIR. Any `fews client` command
//! works against a router address unchanged.
//!
//! Stream files use the `fews-stream::io` text format: one `a b [-]` update
//! per line.
//!
//! All stdout writes go through [`outln!`], which exits cleanly when the
//! consumer goes away (`fews run … | head` must not panic on `EPIPE`).

mod opts;

use fews_common::{SpaceConfig, SpaceId, SpaceModel, SpaceUsage};
use fews_core::insertion_deletion::{FewwInsertDelete, IdConfig};
use fews_core::insertion_only::{FewwConfig, FewwInsertOnly};
use fews_core::neighbourhood::Neighbourhood;
use fews_engine::EngineConfig;
use fews_net::{Client, Server, ServerOptions};
use fews_stream::update::{as_insertions, degrees, net_graph};
use fews_stream::{io as sio, Update};
use opts::Opts;
use std::io::BufReader;

/// Write one line to stdout, exiting cleanly on a broken pipe.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let res = out.write_fmt(args).and_then(|()| out.write_all(b"\n"));
    if let Err(e) = res {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            // Downstream closed (e.g. `| head`): not an error.
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` that survives `SIGPIPE`/`EPIPE` (see [`emit`]).
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage("missing subcommand"));
    let rest: Vec<String> = args.collect();
    match cmd.as_str() {
        "generate" => generate(&rest),
        "stats" => stats(&rest),
        "run" => run(&rest),
        "listen" => listen(&rest),
        "router" => router(&rest),
        "client" => client_cmd(&rest),
        "--help" | "-h" | "help" => usage("…"),
        other => usage(&format!("unknown subcommand {other}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  fews generate <planted|zipf|dos|dblog> [--key value …] --out FILE\n  \
         fews stats FILE [--n N]\n  \
         fews run FILE --n N --d D [--alpha A] [--model io|id] [--seed S] [--scale X] [--m M]\n  \
         fews listen --addr HOST:PORT --n N --d D [--alpha A] [--model io|id] [--seed S] \
         [--scale X] [--m M]\n  \
         {:13}[--shards K] [--partitions P] [--batch B] [--replay FILE] [--restore CKPT]\n  \
         {:13}[--data-dir DIR] [--compact-bytes N] [--max-conns C]\n  \
         {:13}[--inflight-updates U] [--lag-budget L]\n  \
         fews router --addr HOST:PORT --workers H1:P1,H2:P2,… --n N --d D [--alpha A] \
         [--model io|id] [--seed S]\n  \
         {:13}[--scale X] [--m M] [--partitions P] [--replicas R] [--data-dir DIR] \
         [--max-conns C]\n  \
         {:13}[--timeout-ms T] [--retries R] [--heartbeat-ms H] [--retained-budget N >= 1]\n  \
         {:13}[--forward-shutdown true|false]\n  \
         fews client ADDR [--space S] [--timeout-ms T] [--retries R] [--overload-retries O] \
         [--resend] [--stale] <certified | certify V | top K | stats | ping |\n  \
         {:13}ingest FILE [--batch B] | checkpoint OUT | restore CKPT | shutdown |\n  \
         {:13}create-space NAME --n N --d D [--alpha A] [--model io|id] [--m M] [--scale X] \
         [--partitions P] [--quota Q] |\n  \
         {:13}drop-space NAME | list-spaces | join-worker ADDR>",
        "", "", "", "", "", "", "", "", ""
    );
    std::process::exit(2);
}

/// Parse `args` as `--key value` flags, accepting only those `known` names
/// (the flags the subcommand's usage line lists): any other flag is a
/// usage error.
fn opts(args: &[String], known: &str) -> Opts {
    Opts::parse(args, known).unwrap_or_else(|e| usage(&e))
}

fn write_stream(path: &str, updates: &[Update]) {
    let f = std::fs::File::create(path).unwrap_or_else(|e| usage(&format!("create {path}: {e}")));
    sio::write_updates(std::io::BufWriter::new(f), updates).expect("write stream");
    outln!("wrote {} updates to {path}", updates.len());
}

fn read_stream(path: &str) -> Vec<Update> {
    let f = std::fs::File::open(path).unwrap_or_else(|e| usage(&format!("open {path}: {e}")));
    sio::read_updates(BufReader::new(f)).unwrap_or_else(|e| usage(&format!("parse {path}: {e}")))
}

/// Open `path` as a one-pass update iterator (constant memory).
fn stream_updates(path: &str) -> impl Iterator<Item = Update> + '_ {
    let f = std::fs::File::open(path).unwrap_or_else(|e| usage(&format!("open {path}: {e}")));
    sio::UpdateReader::new(BufReader::new(f))
        .map(move |item| item.unwrap_or_else(|e| usage(&format!("parse {path}: {e}"))))
}

fn generate(rest: &[String]) {
    let workload = rest
        .first()
        .cloned()
        .unwrap_or_else(|| usage("generate needs a workload"));
    let known = match workload.as_str() {
        "planted" => "seed out n m d background",
        "zipf" => "seed out n len theta",
        "dos" => "seed out dsts srcs packets attack",
        "dblog" => "seed out records users hot background retract",
        other => usage(&format!("unknown workload {other}")),
    };
    let o = opts(&rest[1..], known);
    let seed: u64 = o.get("seed", 1);
    let out: String = o
        .get_str("out")
        .unwrap_or_else(|| usage("--out is required"));
    let mut rng = fews_common::rng::rng_for(seed, 0xC11);
    match workload.as_str() {
        "planted" => {
            let n = o.get("n", 256u32);
            let m = o.get("m", 1u64 << 20);
            let d = o.get("d", 64u32);
            let bg = o.get("background", 4u32);
            let g = fews_stream::gen::planted::planted_star(n, m, d, bg, &mut rng);
            let mut edges = g.edges;
            fews_stream::order::shuffle(&mut edges, &mut rng);
            outln!(
                "# planted heavy vertex {} with degree {}",
                g.heavy,
                g.degree
            );
            write_stream(&out, &as_insertions(&edges));
        }
        "zipf" => {
            let n = o.get("n", 1024u32);
            let len = o.get("len", 100_000u64);
            let theta = o.get("theta", 1.1f64);
            let s = fews_stream::gen::zipf::zipf_stream(n, theta, len, &mut rng);
            write_stream(&out, &as_insertions(&s.edges));
        }
        "dos" => {
            let dsts = o.get("dsts", 256u32);
            let srcs = o.get("srcs", 1u64 << 24);
            let packets = o.get("packets", 20_000u64);
            let attack = o.get("attack", 400u32);
            let t = fews_stream::gen::dos::dos_trace(dsts, srcs, packets, 1.0, attack, &mut rng);
            outln!("# victim destination {}", t.victim);
            write_stream(&out, &as_insertions(&t.edges));
        }
        "dblog" => {
            let records = o.get("records", 64u32);
            let users = o.get("users", 1u64 << 16);
            let hot = o.get("hot", 32u32);
            let bg = o.get("background", 4u32);
            let retract = o.get("retract", 0.5f64);
            let log = fews_stream::gen::dblog::db_log(records, users, hot, bg, retract, &mut rng);
            outln!("# hot record {}", log.hot_record);
            write_stream(&out, &log.updates);
        }
        _ => unreachable!("workload checked with its flags"),
    }
}

fn stats(rest: &[String]) {
    let path = rest
        .first()
        .cloned()
        .unwrap_or_else(|| usage("stats needs a FILE"));
    let o = opts(&rest[1..], "n");
    let updates = read_stream(&path);
    let inserts = updates.iter().filter(|u| u.delta > 0).count();
    let deletes = updates.len() - inserts;
    let net = net_graph(&updates);
    let n: u32 = o.get(
        "n",
        updates.iter().map(|u| u.edge.a).max().map_or(1, |a| a + 1),
    );
    if n == 0 {
        usage("--n must be at least 1");
    }
    if let Some(u) = updates.iter().find(|u| u.edge.a >= n) {
        usage(&format!("vertex {} out of range --n {n}", u.edge.a));
    }
    let deg = degrees(&net, n);
    let (argmax, &max) = deg
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .expect("n >= 1");
    outln!(
        "updates        : {} ({inserts} inserts, {deletes} deletes)",
        updates.len()
    );
    outln!("surviving edges: {}", net.len());
    outln!("A-vertices     : {n}");
    outln!("max degree     : Δ = {max} at vertex {argmax}");
    let hist = [1u32, 2, 4, 8, 16, 32, 64, u32::MAX];
    let mut prev = 0u32;
    for &hi in &hist {
        let c = deg.iter().filter(|&&d| d > prev && d <= hi).count();
        if c > 0 {
            if hi == u32::MAX {
                outln!("degree > {prev:4}    : {c} vertices");
            } else {
                outln!("degree {:4}-{:4}: {c} vertices", prev + 1, hi);
            }
        }
        prev = hi;
    }
}

fn report(
    result: Option<Neighbourhood>,
    model: &str,
    count: usize,
    elapsed: std::time::Duration,
    space: usize,
) {
    match result {
        Some(nb) => {
            outln!("vertex   : {}", nb.vertex);
            outln!("witnesses: {}", nb.size());
            let shown: Vec<String> = nb.witnesses.iter().take(10).map(u64::to_string).collect();
            outln!(
                "           [{}{}]",
                shown.join(", "),
                if nb.size() > 10 { ", …" } else { "" }
            );
        }
        None => outln!("fail (no ⌊d/α⌋-neighbourhood certified)"),
    }
    outln!(
        "model {} | {} updates in {:.2?} | state {} KiB",
        model,
        count,
        elapsed,
        space / 1024
    );
}

fn run(rest: &[String]) {
    let path = rest
        .first()
        .cloned()
        .unwrap_or_else(|| usage("run needs a FILE"));
    let o = opts(&rest[1..], "n d alpha model seed scale m");
    let d: u32 = o
        .get_str("d")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage("--d got an unparsable value"))
        })
        .unwrap_or_else(|| usage("--d is required"));
    let alpha: u32 = o.get("alpha", 2);
    let seed: u64 = o.get("seed", 2021);
    let model = o.get_str("model");
    if let Some(other) = model.as_deref().filter(|m| !matches!(*m, "io" | "id")) {
        usage(&format!("unknown model {other} (io|id)"));
    }
    let n = o.get_str("n").map(|s| {
        s.parse::<u32>()
            .unwrap_or_else(|_| usage("--n got an unparsable value"))
    });
    let m = o.get_str("m").map(|s| {
        s.parse::<u64>()
            .unwrap_or_else(|_| usage("--m got an unparsable value"))
    });

    // A flag left out is inferred by a first pass that only parses the
    // file; the run pass then checks every update against the flags,
    // given or inferred alike.
    let given = match model.as_deref() {
        Some("io") => n.is_some(),
        Some(_) => n.is_some() && m.is_some(),
        None => false,
    };
    let (deletes, max_n, max_m) = if given {
        (false, 0, 0)
    } else {
        infer_shape(&path)
    };
    let n = n.unwrap_or(max_n);
    let model = model.unwrap_or_else(|| if deletes { "id" } else { "io" }.into());
    let started = std::time::Instant::now();
    let mut count = 0usize;
    let (result, space) = if model == "io" {
        validated(SpaceConfig::insert_only(n, d, alpha));
        let mut alg = FewwInsertOnly::new(FewwConfig::new(n, d, alpha), seed);
        for u in stream_updates(&path) {
            if u.delta < 0 {
                usage("stream contains deletions; use --model id");
            }
            if u.edge.a >= n {
                usage(&format!("vertex {} out of range --n {n}", u.edge.a));
            }
            alg.push(u.edge);
            count += 1;
        }
        (alg.result(), alg.space_bytes())
    } else {
        let m = m.unwrap_or(max_m);
        let scale = o.get("scale", 0.1f64);
        validated(SpaceConfig::insert_delete(n, m, d, alpha, scale));
        let mut alg = FewwInsertDelete::new(IdConfig::with_scale(n, m, d, alpha, scale), seed);
        for u in stream_updates(&path) {
            if u.edge.a >= n || u.edge.b >= m {
                usage(&format!(
                    "edge ({}, {}) out of range --n {n} / --m {m}",
                    u.edge.a, u.edge.b
                ));
            }
            alg.push(u);
            count += 1;
        }
        (alg.result(), alg.space_bytes())
    };
    report(result, &model, count, started.elapsed(), space);
}

/// The first pass of `run` when a flag is missing: whether any update
/// deletes (then the model is id), n = max a + 1 and m = max b + 1.
fn infer_shape(path: &str) -> (bool, u32, u64) {
    let (mut deletes, mut n, mut m) = (false, 1u32, 1u64);
    for u in stream_updates(path) {
        deletes |= u.delta < 0;
        n = n.max(u.edge.a.saturating_add(1));
        m = m.max(u.edge.b.saturating_add(1));
    }
    (deletes, n, m)
}

/// Build an [`EngineConfig`] from the model flags of `create-space`, under
/// the same parse and the same rule ([`space_spec_from`]), plus the runtime
/// shape `[--seed S] [--shards K] [--batch B]`: `listen` and `router` speak
/// this dialect.
fn engine_cfg_from(o: &Opts) -> EngineConfig {
    let spec = space_spec_from(o);
    let shards: usize = o.get("shards", 4);
    let batch: usize = o.get("batch", 1024);
    if shards == 0 || batch == 0 {
        usage("--shards and --batch must be ≥ 1");
    }
    EngineConfig::from_space(&spec, o.get("seed", 2021))
        .with_shards(shards)
        .with_batch(batch)
}

/// `fews listen`: start the TCP server and block until a client sends
/// `shutdown`. `--replay FILE` and `--restore CKPT` pre-load the engine
/// through a loopback client, so the data path is the wire path.
/// `--data-dir DIR` turns on durability: spaces found under DIR are
/// recovered before the first connection is accepted.
fn listen(rest: &[String]) {
    let o = opts(
        rest,
        "addr n d alpha model seed scale m shards partitions batch replay restore data-dir \
         compact-bytes max-conns inflight-updates lag-budget",
    );
    let addr = o.get_str("addr").unwrap_or_else(|| "127.0.0.1:7411".into());
    let cfg = engine_cfg_from(&o);
    let (shards, partitions) = (cfg.shards, cfg.partitions);
    let opts = ServerOptions {
        data_dir: o.get_str("data-dir").map(std::path::PathBuf::from),
        compact_bytes: o.get("compact-bytes", 8u64 << 20).max(1),
        refresh_debounce: None,
        max_conns: o.get("max-conns", 0usize),
        limits: fews_net::OverloadLimits {
            inflight_updates: o.get("inflight-updates", 0u64),
            lag_budget: o.get("lag-budget", 0u64),
        },
        disk_faults: None,
    };
    let durable = opts.data_dir.clone();
    let server = Server::start_with(cfg, &addr, opts)
        .unwrap_or_else(|e| usage(&format!("bind {addr}: {e}")));
    for line in server.recovery_log() {
        outln!("recovered {line}");
    }
    let bound = server.local_addr();
    outln!(
        "listening on {bound} — {shards} shard(s) / {partitions} partition(s){}; \
         stop with `fews client {bound} shutdown`",
        durable
            .map(|d| format!(" | durable at {}", d.display()))
            .unwrap_or_default()
    );
    if o.get_str("restore").is_some() || o.get_str("replay").is_some() {
        let mut local =
            Client::connect(bound).unwrap_or_else(|e| usage(&format!("self-connect: {e}")));
        if let Some(ckpt) = o.get_str("restore") {
            let bytes =
                std::fs::read(&ckpt).unwrap_or_else(|e| usage(&format!("read {ckpt}: {e}")));
            local
                .restore(&bytes)
                .unwrap_or_else(|e| usage(&format!("restore {ckpt}: {e}")));
            outln!("restored checkpoint {ckpt} ({} bytes)", bytes.len());
        }
        if let Some(path) = o.get_str("replay") {
            let batch = o.get("batch", 1024usize).max(1);
            let space = cfg.to_space(0);
            let count = ingest_file(&mut local, &path, batch, space.n, space.m);
            outln!("replayed {count} updates from {path}");
        }
    }
    let ingested = server.join();
    outln!("server shut down after ingesting {ingested} updates");
}

/// `fews router`: start a cluster coordinator over running `fews listen`
/// workers and block until a client sends `shutdown`. The workers must be
/// empty and serve the exact model flags given here — the router verifies
/// each one's identity (`node-hello`) before routing a single update.
fn router(rest: &[String]) {
    let o = opts(
        rest,
        "addr workers n d alpha model seed scale m partitions replicas data-dir max-conns \
         timeout-ms retries heartbeat-ms retained-budget forward-shutdown",
    );
    let addr = o.get_str("addr").unwrap_or_else(|| "127.0.0.1:7421".into());
    let workers: Vec<String> = o
        .get_str("workers")
        .unwrap_or_else(|| usage("--workers is required (comma-separated HOST:PORT list)"))
        .split(',')
        .map(|w| w.trim().to_string())
        .filter(|w| !w.is_empty())
        .collect();
    if workers.is_empty() {
        usage("--workers named no addresses");
    }
    let cfg = engine_cfg_from(&o);
    let timeout = std::time::Duration::from_millis(o.get("timeout-ms", 2_000u64).max(1));
    let mut client = fews_net::ClientOptions::bounded(timeout, o.get("retries", 2u32));
    // Worker connections jitter their retry backoff from the master seed,
    // de-correlated per node inside the router.
    client.jitter_seed = Some(cfg.seed);
    let data_dir = o.get_str("data-dir").map(std::path::PathBuf::from);
    let durable = data_dir.clone();
    // The only bound on the router's retained logs, so 0 is refused rather
    // than read as "unbounded": nothing else bounds router memory or the WAL.
    let retained_budget = o.get("retained-budget", 1u64 << 20);
    if retained_budget == 0 {
        usage("--retained-budget must be at least 1 update");
    }
    let opts = fews_cluster::RouterOptions {
        client,
        heartbeat: Some(std::time::Duration::from_millis(
            o.get("heartbeat-ms", 1_000u64).max(1),
        )),
        forward_shutdown: o.get("forward-shutdown", true),
        replicas: o.get("replicas", 2usize).max(1),
        data_dir,
        retained_budget,
        disk_faults: None,
        max_conns: o.get("max-conns", 0usize),
    };
    let replicas = opts.replicas;
    let router = fews_cluster::Router::start(cfg, &addr, &workers, opts)
        .unwrap_or_else(|e| usage(&format!("start router at {addr}: {e}")));
    let bound = router.local_addr();
    outln!(
        "routing on {bound} — {} worker(s) × {} partition(s), {} replica(s) per partition; \
         stop with `fews client {bound} shutdown`",
        workers.len(),
        cfg.partitions,
        replicas.min(workers.len())
    );
    if let Some(dir) = durable {
        outln!("  durable: retained logs in {}", dir.display());
    }
    for (i, w) in workers.iter().enumerate() {
        outln!("  node {i}: {w}");
    }
    let ingested = router.join();
    outln!("router shut down after ingesting {ingested} updates");
}

/// Stream FILE through a connected client in `batch`-sized ingest frames,
/// pre-checking ranges so the server never sees an invalid update.
fn ingest_file(client: &mut Client, path: &str, batch: usize, n: u32, m: u64) -> u64 {
    let mut pending: Vec<Update> = Vec::with_capacity(batch);
    let mut count = 0u64;
    let mut flush = |pending: &mut Vec<Update>| {
        if !pending.is_empty() {
            client
                .ingest_batch(pending)
                .unwrap_or_else(|e| usage(&format!("ingest: {e}")));
            pending.clear();
        }
    };
    for u in stream_updates(path) {
        if u.edge.a >= n || (m > 0 && u.edge.b >= m) {
            usage(&format!(
                "edge ({}, {}) out of range --n {n}{}",
                u.edge.a,
                u.edge.b,
                if m > 0 {
                    format!(" / --m {m}")
                } else {
                    String::new()
                }
            ));
        }
        pending.push(u);
        count += 1;
        if pending.len() >= batch {
            flush(&mut pending);
        }
    }
    flush(&mut pending);
    count
}

/// Pull `--space S`, `--timeout-ms T`, `--retries R`, and `--stale` out of
/// a client argument list (they may appear anywhere), returning the
/// addressed space, the connection options, the stale flag, and the
/// remaining positional args.
fn extract_space(rest: &[String]) -> (SpaceId, fews_net::ClientOptions, bool, Vec<String>) {
    let mut space = SpaceId::default_space();
    let mut timeout_ms: Option<u64> = None;
    let mut retries: u32 = 0;
    let mut overload_retries: u32 = 0;
    let mut resend = false;
    let mut stale = false;
    let mut out = Vec::with_capacity(rest.len());
    let mut i = 0usize;
    let value = |key: &str, val: Option<&String>| -> String {
        val.cloned()
            .unwrap_or_else(|| usage(&format!("{key} needs a value")))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--space" => {
                let name = value("--space", rest.get(i + 1));
                space = SpaceId::new(&name).unwrap_or_else(|e| usage(&format!("--space: {e}")));
                i += 2;
            }
            "--timeout-ms" => {
                let ms = value("--timeout-ms", rest.get(i + 1));
                timeout_ms = Some(
                    ms.parse()
                        .unwrap_or_else(|_| usage("--timeout-ms got an unparsable value")),
                );
                i += 2;
            }
            "--retries" => {
                let r = value("--retries", rest.get(i + 1));
                retries = r
                    .parse()
                    .unwrap_or_else(|_| usage("--retries got an unparsable value"));
                i += 2;
            }
            "--overload-retries" => {
                let r = value("--overload-retries", rest.get(i + 1));
                overload_retries = r
                    .parse()
                    .unwrap_or_else(|_| usage("--overload-retries got an unparsable value"));
                i += 2;
            }
            "--resend" => {
                resend = true;
                i += 1;
            }
            "--stale" => {
                stale = true;
                i += 1;
            }
            _ => {
                out.push(rest[i].clone());
                i += 1;
            }
        }
    }
    let mut opts = match timeout_ms {
        Some(ms) => {
            fews_net::ClientOptions::bounded(std::time::Duration::from_millis(ms.max(1)), retries)
        }
        None => fews_net::ClientOptions {
            retries,
            ..fews_net::ClientOptions::default()
        },
    };
    opts.overload_retries = overload_retries;
    opts.ingest_resend = resend;
    (space, opts, stale, out)
}

/// `fews client ADDR [--space S] [--timeout-ms T] [--retries R] [--stale]
/// CMD…`: one request against a running `fews listen` or `fews router`.
/// Reads are watermarked read-your-writes by default; `--stale` opts the
/// connection out and answers from the latest published snapshot.
fn client_cmd(rest: &[String]) {
    let (space, copts, stale, rest) = extract_space(rest);
    let addr = rest
        .first()
        .cloned()
        .unwrap_or_else(|| usage("client needs an ADDR"));
    let cmd = rest
        .get(1)
        .cloned()
        .unwrap_or_else(|| usage("client needs a command"));
    let mut client = Client::connect_with(&addr, &copts)
        .unwrap_or_else(|e| usage(&format!("connect {addr}: {e}")))
        .with_space(space);
    client.set_stale(stale);
    let fail = |e: fews_net::ClientError| -> ! { usage(&format!("{cmd}: {e}")) };
    match cmd.as_str() {
        "certified" => {
            let d2 = client.stats().unwrap_or_else(|e| fail(e)).witness_target;
            match client.certified().unwrap_or_else(|e| fail(e)) {
                Some(nb) => print_wire_neighbourhood(&nb, d2),
                None => outln!("fail (no ⌊d/α⌋-neighbourhood certified)"),
            }
        }
        "certify" => {
            let v: u32 = rest
                .get(2)
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| usage("certify needs a vertex id"));
            let d2 = client.stats().unwrap_or_else(|e| fail(e)).witness_target;
            match client.certify(v).unwrap_or_else(|e| fail(e)) {
                Some(nb) => print_wire_neighbourhood(&nb, d2),
                None => outln!("vertex {v}: no witnesses held"),
            }
        }
        "top" => {
            let k: u64 = rest.get(2).and_then(|w| w.parse().ok()).unwrap_or(5);
            let d2 = client.stats().unwrap_or_else(|e| fail(e)).witness_target;
            let top = client.top(k).unwrap_or_else(|e| fail(e));
            if top.is_empty() {
                outln!("(no witnesses collected yet)");
            }
            for nb in top {
                print_wire_neighbourhood(&nb, d2);
            }
        }
        "stats" => {
            let s = client.stats().unwrap_or_else(|e| fail(e));
            outln!(
                "space '{}': {} updates ingested | uptime {:.2}s | d₂ = {} | state {} KiB",
                client.space(),
                s.ingested,
                s.uptime_micros as f64 / 1e6,
                s.witness_target,
                s.space_bytes / 1024
            );
            outln!(
                "  wal {} KiB | quota {}",
                s.wal_bytes / 1024,
                if s.quota_bytes == 0 {
                    "unlimited".to_string()
                } else {
                    format!("{} KiB", s.quota_bytes / 1024)
                }
            );
            let o = &s.overload;
            outln!(
                "  overload: {} in flight ({} KiB) | lag {} updates ({} ms) | \
                 shed {} ingest / {} reads / {} conns",
                o.inflight_updates,
                o.inflight_bytes / 1024,
                o.lag_updates,
                o.lag_ms,
                o.shed_ingest,
                o.shed_reads,
                o.shed_conns
            );
            for (i, sh) in s.shards.iter().enumerate() {
                outln!(
                    "  shard {i}: {} partitions | {} updates in {} batches | {} KiB",
                    sh.partitions,
                    sh.processed,
                    sh.batches,
                    sh.space_bytes / 1024
                );
            }
        }
        "ingest" => {
            let path = rest
                .get(2)
                .cloned()
                .unwrap_or_else(|| usage("ingest needs a FILE"));
            let o = opts(&rest[3..], "batch");
            let batch = o.get("batch", 1024usize).max(1);
            // Ranges are enforced server-side; pass the widest bounds here.
            let count = ingest_file(&mut client, &path, batch, u32::MAX, 0);
            outln!(
                "ingested {count} updates at watermark {} ({} bytes sent, {} received)",
                client.watermark(),
                client.bytes_sent(),
                client.bytes_received()
            );
        }
        "checkpoint" => {
            let out = rest
                .get(2)
                .cloned()
                .unwrap_or_else(|| usage("checkpoint needs an output PATH"));
            let bytes = client.checkpoint().unwrap_or_else(|e| fail(e));
            std::fs::write(&out, &bytes).unwrap_or_else(|e| usage(&format!("write {out}: {e}")));
            outln!("checkpointed {} bytes to {out}", bytes.len());
        }
        "restore" => {
            let ckpt = rest
                .get(2)
                .cloned()
                .unwrap_or_else(|| usage("restore needs a CKPT file"));
            let bytes =
                std::fs::read(&ckpt).unwrap_or_else(|e| usage(&format!("read {ckpt}: {e}")));
            client.restore(&bytes).unwrap_or_else(|e| fail(e));
            outln!("restored {} bytes into {addr}", bytes.len());
        }
        "create-space" => {
            let name = rest
                .get(2)
                .cloned()
                .unwrap_or_else(|| usage("create-space needs a NAME"));
            let name = SpaceId::new(&name).unwrap_or_else(|e| usage(&format!("create-space: {e}")));
            let spec = space_spec_from(&opts(
                &rest[3..],
                "n d alpha model m scale partitions quota",
            ));
            client.create_space(&name, spec).unwrap_or_else(|e| fail(e));
            outln!("created space '{name}'");
        }
        "drop-space" => {
            let name = rest
                .get(2)
                .cloned()
                .unwrap_or_else(|| usage("drop-space needs a NAME"));
            let name = SpaceId::new(&name).unwrap_or_else(|e| usage(&format!("drop-space: {e}")));
            client.drop_space(&name).unwrap_or_else(|e| fail(e));
            outln!("dropped space '{name}'");
        }
        "list-spaces" => {
            for info in client.list_spaces().unwrap_or_else(|e| fail(e)) {
                let model = match info.spec.model {
                    SpaceModel::InsertOnly => format!("io n={} ", info.spec.n),
                    SpaceModel::InsertDelete => {
                        format!("id n={} m={} ", info.spec.n, info.spec.m)
                    }
                };
                outln!(
                    "{:16} {model}d={} α={} partitions={} | state {} KiB | wal {} KiB | quota {}",
                    info.name,
                    info.spec.d,
                    info.spec.alpha,
                    info.spec.partitions,
                    info.space_bytes / 1024,
                    info.wal_bytes / 1024,
                    if info.spec.quota_bytes == 0 {
                        "unlimited".to_string()
                    } else {
                        format!("{} KiB", info.spec.quota_bytes / 1024)
                    }
                );
            }
        }
        "ping" => {
            let started = std::time::Instant::now();
            client.ping().unwrap_or_else(|e| fail(e));
            outln!("pong from {addr} in {:.2?}", started.elapsed());
        }
        "join-worker" => {
            let worker = rest
                .get(2)
                .cloned()
                .unwrap_or_else(|| usage("join-worker needs a worker ADDR"));
            client.join_worker(&worker).unwrap_or_else(|e| fail(e));
            outln!("worker {worker} joined the cluster at {addr}");
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            outln!("server {addr} shutting down");
        }
        other => usage(&format!(
            "unknown client command {other} — try: certified | certify V | top K | stats | \
             ping | ingest FILE | checkpoint OUT | restore CKPT | create-space NAME … | \
             drop-space NAME | list-spaces | join-worker ADDR | shutdown"
        )),
    }
}

/// Build a [`SpaceConfig`] from `create-space` flags (`--n --d [--alpha]
/// [--model io|id] [--m] [--scale] [--partitions] [--quota]`, the model
/// half of `listen`'s and `router`'s dialect), refusing every parameter
/// set [`SpaceConfig::validate`] refuses.
fn space_spec_from(o: &Opts) -> SpaceConfig {
    let n: u32 = o
        .get_str("n")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage("--n got an unparsable value"))
        })
        .unwrap_or_else(|| usage("--n is required"));
    let d: u32 = o
        .get_str("d")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage("--d got an unparsable value"))
        })
        .unwrap_or_else(|| usage("--d is required"));
    let alpha: u32 = o.get("alpha", 2);
    let partitions: u32 = o.get("partitions", fews_engine::DEFAULT_PARTITIONS as u32);
    let quota: u64 = o.get("quota", 0u64);
    let model: String = o.get_str("model").unwrap_or_else(|| "io".into());
    let spec = match model.as_str() {
        "io" => SpaceConfig::insert_only(n, d, alpha),
        "id" => {
            let m: u64 = o.get("m", 0);
            if m == 0 {
                usage("--m is required for --model id");
            }
            SpaceConfig::insert_delete(n, m, d, alpha, o.get("scale", 0.1f64))
        }
        other => usage(&format!("unknown model {other} (io|id)")),
    }
    .with_partitions(partitions)
    .with_quota(quota);
    validated(spec)
}

/// `spec`, or a usage error naming the rule it breaks: the one parameter
/// rule behind `run`, `listen`, `router` and `create-space`.
fn validated(spec: SpaceConfig) -> SpaceConfig {
    spec.validate().unwrap_or_else(|e| usage(&e));
    spec
}

fn print_wire_neighbourhood(nb: &Neighbourhood, d2: u64) {
    let shown: Vec<String> = nb.witnesses.iter().take(8).map(u64::to_string).collect();
    outln!(
        "vertex {:6} | {} witness(es){} [{}{}]",
        nb.vertex,
        nb.size(),
        if nb.size() as u64 >= d2 {
            " ✓ certified"
        } else {
            ""
        },
        shown.join(", "),
        if nb.size() > 8 { ", …" } else { "" }
    );
}
