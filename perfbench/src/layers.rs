//! The traced run's per-layer measurements: the workload's own frames
//! replayed in process through each layer's public calls, in the order a
//! node runs them, plus probes of the core algorithms, the sampler banks,
//! the frame path and the router hop against live processes.

use crate::procs::{connect, Launcher};
use crate::trace::{median, Tracer};
use crate::workload::{Model, Spec, Stream, DBLOG_MODEL, ZIPF_MODEL};
use fews_common::rng::rng_for;
use fews_common::SpaceId;
use fews_core::insertion_deletion::FewwInsertDelete;
use fews_core::insertion_only::FewwInsertOnly;
use fews_engine::wal::Wal;
use fews_engine::{Engine, ModelSpec};
use fews_net::proto::{encode_ingest_batch_into, Request, Response};
use fews_sketch::bank::SamplerBank;
use fews_stream::Update;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Compaction threshold of `fews listen` (`--compact-bytes` default).
const COMPACT_BYTES: u64 = 8 << 20;

/// Per-layer samples, each already in the unit its metric name states.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spans recorded by the node replay, and the metric each one feeds with
/// the factor that converts its self time from nanoseconds.
const NODE_SPANS: [(&str, &str, f64); 13] = [
    ("proto.encode_ingest_batch", "proto.ingest_encode_us", 1e-3),
    ("proto.Request::decode", "proto.ingest_decode_us", 1e-3),
    ("wal.Wal::append", "wal.append_us", 1e-3),
    ("engine.Engine::ingest", "engine.ingest_us", 1e-3),
    ("wal.Wal::sync", "wal.sync_ms", 1e-6),
    (
        "engine.Engine::refresh_begin",
        "engine.refresh_begin_us",
        1e-3,
    ),
    (
        "engine.RefreshBarrier::wait",
        "engine.refresh_barrier_ms",
        1e-6,
    ),
    (
        "engine.Engine::refresh_install",
        "engine.refresh_install_ms",
        1e-6,
    ),
    ("view.GlobalView::top", "view.top_us", 1e-3),
    ("view.GlobalView::certify", "view.certify_us", 1e-3),
    ("view.GlobalView::certified", "view.certified_us", 1e-3),
    ("proto.Response::encode", "proto.answer_encode_us", 1e-3),
    ("proto.Response::decode", "proto.answer_decode_us", 1e-3),
];

/// Replay up to `frames` of the workload's frames (stopping after
/// `budget`) through decode, WAL append, `Engine::ingest`, WAL sync, the
/// refresh barrier and the view answer, on an engine restored from the
/// base checkpoint at the CLI's default shape.
pub fn replay_node(
    spec: &Spec,
    stream: &Stream,
    base_checkpoint: &[u8],
    frames: u64,
    budget: Duration,
    work: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Samples> {
    let mut out = Samples::new();
    let mut engine = Engine::start(spec.model.engine_cfg());
    engine
        .restore_checkpoint(base_checkpoint)
        .map_err(|e| std::io::Error::other(format!("restore base checkpoint: {e}")))?;
    let wal_path = work.join("replay.wal");
    let _ = std::fs::remove_file(&wal_path);
    let (wal, _) = Wal::open(&wal_path, 0)?;
    let space = SpaceId::default_space();
    let probes = stream.probe_vertices();
    let mut updates = Vec::with_capacity(spec.frame);
    let mut frame = Vec::new();
    let mut answer = Vec::new();
    let (mut wire_bytes, mut wal_bytes, mut sent) = (0u64, 0u64, 0u64);
    let mut checkpoints: Vec<Vec<u8>> = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while k < frames && start.elapsed() < budget {
        stream.fill(
            spec.base_updates + k * spec.frame as u64,
            spec.frame,
            &mut updates,
        );
        let root = tracer.open("node.ingest", None, k);
        frame.clear();
        tracer.span("proto.encode_ingest_batch", Some(root), k, || {
            encode_ingest_batch_into(&mut frame, &space, &updates)
        });
        wire_bytes += frame.len() as u64;
        let decoded = tracer.span("proto.Request::decode", Some(root), k, || {
            Request::decode(&frame[4..])
        });
        let Ok((_, Request::IngestBatch(batch))) = decoded else {
            return Err(std::io::Error::other("ingest frame did not decode"));
        };
        let appended = tracer.span("wal.Wal::append", Some(root), k, || {
            wal.append(space.as_str(), &batch)
        });
        wal_bytes += appended.len;
        sent += batch.len() as u64;
        tracer.span("engine.Engine::ingest", Some(root), k, || {
            engine.ingest(batch.iter().copied())
        });
        tracer.span("wal.Wal::sync", Some(root), k, || wal.sync())?;
        tracer.close(root);
        if wal.bytes() >= COMPACT_BYTES {
            checkpoints.push(timed_checkpoint(&mut engine, &mut out));
            wal.reset()?;
        }

        let root = tracer.open("node.refresh", None, k);
        let barrier = tracer.span("engine.Engine::refresh_begin", Some(root), k, || {
            engine.refresh_begin()
        });
        let done = tracer.span("engine.RefreshBarrier::wait", Some(root), k, || {
            barrier.wait()
        });
        let (view, _) = tracer.span("engine.Engine::refresh_install", Some(root), k, || {
            engine.refresh_install(done)
        });
        tracer.close(root);

        let root = tracer.open("node.query", None, k);
        let top = tracer.span("view.GlobalView::top", Some(root), k, || view.top(3));
        let v = probes[k as usize % probes.len()];
        let _ = tracer.span("view.GlobalView::certify", Some(root), k, || {
            view.certify(v)
        });
        let _ = tracer.span("view.GlobalView::certified", Some(root), k, || {
            view.certified()
        });
        answer.clear();
        let response = Response::Top(top);
        tracer.span("proto.Response::encode", Some(root), k, || {
            response.encode_into(&mut answer)
        });
        let _ = tracer.span("proto.Response::decode", Some(root), k, || {
            Response::decode(&answer[4..])
        });
        tracer.close(root);
        k += 1;
    }
    // Checkpoints and restores are rare in the replay; take a few more so
    // their medians stand on several samples.
    while checkpoints.len() < 3 {
        checkpoints.push(timed_checkpoint(&mut engine, &mut out));
    }
    let latest = checkpoints.last().expect("three checkpoints");
    for _ in 0..3 {
        let t = Instant::now();
        let mut fresh = Engine::start(spec.model.engine_cfg());
        fresh
            .restore_checkpoint(latest)
            .map_err(|e| std::io::Error::other(format!("restore: {e}")))?;
        out.entry("engine.restore_ms")
            .or_default()
            .push(ms(t.elapsed()));
    }
    drop(engine);
    drop(wal);
    let copy = work.join("recover.wal");
    for _ in 0..3 {
        std::fs::copy(&wal_path, &copy)?;
        let t = Instant::now();
        let (_wal, recovery) = Wal::open(&copy, 0)?;
        out.entry("wal.recover_ms")
            .or_default()
            .push(ms(t.elapsed()));
        drop(recovery);
    }
    out.insert("wal.bytes_per_update", vec![wal_bytes as f64 / sent as f64]);
    out.insert(
        "proto.bytes_per_update",
        vec![wire_bytes as f64 / sent as f64],
    );
    let selfs = tracer.self_times();
    for (span, metric, scale) in NODE_SPANS {
        let xs = selfs.get(span).map(Vec::as_slice).unwrap_or_default();
        out.insert(metric, xs.iter().map(|x| x * scale).collect());
    }
    Ok(out)
}

fn timed_checkpoint(engine: &mut Engine, out: &mut Samples) -> Vec<u8> {
    let t = Instant::now();
    let bytes = engine.checkpoint();
    out.entry("engine.checkpoint_ms")
        .or_default()
        .push(ms(t.elapsed()));
    out.entry("engine.checkpoint_bytes")
        .or_default()
        .push(bytes.len() as f64);
    bytes
}

/// The core algorithms and sampler banks, fed frames of the workload's own
/// stream where it runs that model and of the seed's stream of the other
/// model otherwise (those layers are off the workload's path).
pub fn probe_core(spec: &Spec, stream: &Stream, seed: u64, budget: Duration) -> Samples {
    let mut out = Samples::new();
    let own_io = matches!(spec.model, Model::Io { .. });
    let other = Stream::new(if own_io { DBLOG_MODEL } else { ZIPF_MODEL }, seed);
    let (io_stream, io_frame, io_base) = if own_io {
        (stream, spec.frame, spec.base_updates)
    } else {
        (&other, 8192, 0)
    };
    let (id_stream, id_frame) = if own_io {
        (&other, 64)
    } else {
        (stream, spec.frame)
    };
    let mut buf: Vec<Update> = Vec::new();

    // FewwInsertOnly::push, per update, frame by frame.
    let ModelSpec::InsertOnly(io_cfg) = ZIPF_MODEL.engine_cfg().model else {
        unreachable!("zipf model is insertion-only")
    };
    let mut io = FewwInsertOnly::new(io_cfg, seed);
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < budget / 3 || k < 3 {
        io_stream.fill(io_base + k * io_frame as u64, io_frame, &mut buf);
        let t = Instant::now();
        for u in &buf {
            io.push(std::hint::black_box(u.edge));
        }
        let per = t.elapsed().as_nanos() as f64 / buf.len() as f64;
        out.entry("core.io_push_ns").or_default().push(per);
        k += 1;
    }

    // FewwInsertDelete: pooled witnesses after each frame.
    let ModelSpec::InsertDelete(id_cfg) = DBLOG_MODEL.engine_cfg().model else {
        unreachable!("dblog model is insertion-deletion")
    };
    let mut id = FewwInsertDelete::new(id_cfg, seed);
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < budget / 3 || k < 3 {
        id_stream.fill(k * id_frame as u64, id_frame, &mut buf);
        id.push_batch(&buf);
        let t = Instant::now();
        std::hint::black_box(id.pooled_witnesses_cached());
        out.entry("core.id_pool_ms")
            .or_default()
            .push(ms(t.elapsed()));
        k += 1;
    }

    // SamplerBank::update_batch per update and sample_all per bank, with
    // the geometry of the id model: one bank per record over the users,
    // plus the edge bank over every (record, user) pair.
    let mut rng = rng_for(seed, 0xBE_0003);
    let mut vertex_banks: Vec<SamplerBank> = (0..id_cfg.n)
        .map(|_| {
            SamplerBank::with_config(id_cfg.m, id_cfg.samplers_per_vertex(), id_cfg.l0, &mut rng)
        })
        .collect();
    let mut edge_bank = SamplerBank::with_config(
        id_cfg.n as u64 * id_cfg.m,
        id_cfg.edge_sampler_count(),
        id_cfg.l0,
        &mut rng,
    );
    let start = Instant::now();
    let mut k = 0u64;
    let mut groups: Vec<Vec<(u64, i64)>> = vec![Vec::new(); id_cfg.n as usize];
    let mut edge: Vec<(u64, i64)> = Vec::new();
    while start.elapsed() < budget / 3 || k < 3 {
        id_stream.fill(k * id_frame as u64, id_frame, &mut buf);
        edge.clear();
        groups.iter_mut().for_each(Vec::clear);
        for u in &buf {
            edge.push((u.edge.linear_index(id_cfg.m), u.delta as i64));
            groups[u.edge.a as usize].push((u.edge.b, u.delta as i64));
        }
        let t = Instant::now();
        edge_bank.update_batch(&edge);
        for (bank, g) in vertex_banks.iter_mut().zip(&groups) {
            bank.update_batch(g);
        }
        let per = t.elapsed().as_nanos() as f64 / buf.len() as f64;
        out.entry("bank.update_ns").or_default().push(per);
        let bank = &vertex_banks[buf[0].edge.a as usize];
        let t = Instant::now();
        for i in 0..bank.len() {
            std::hint::black_box(bank.sample_all(i));
        }
        out.entry("bank.decode_us")
            .or_default()
            .push(us(t.elapsed()));
        k += 1;
    }
    out
}

/// Frame-path and router-hop probes against a fresh memory-only cluster of
/// the workload's model: two workers behind a router. "Direct" calls go to
/// a worker; the hop is the same call through the router minus direct.
pub fn probe_router(
    spec: &Spec,
    stream: &Stream,
    launcher: &mut Launcher,
    rounds: usize,
) -> std::io::Result<Samples> {
    let mut out = Samples::new();
    let routed = Spec {
        routed: true,
        ..*spec
    };
    let topo = launcher.launch(&routed, None)?;
    let result = (|| -> Result<(), fews_net::ClientError> {
        let mut via = connect(topo.front)?;
        let mut direct = connect(topo.workers[0])?;
        let mut buf = Vec::new();
        let (mut hop_ping, mut ping) = (Vec::new(), Vec::new());
        for _ in 0..rounds * 4 {
            let t = Instant::now();
            via.ping()?;
            hop_ping.push(us(t.elapsed()));
            let t = Instant::now();
            direct.ping()?;
            ping.push(us(t.elapsed()));
        }
        let (mut hop_ack, mut ack) = (Vec::new(), Vec::new());
        for k in 0..rounds as u64 {
            stream.fill(
                spec.base_updates + k * spec.frame as u64,
                spec.frame,
                &mut buf,
            );
            let t = Instant::now();
            via.ingest_batch(&buf)?;
            hop_ack.push(ms(t.elapsed()));
            let t = Instant::now();
            direct.ingest_batch(&buf)?;
            ack.push(ms(t.elapsed()));
        }
        let partitions = spec.model.engine_cfg().partitions as u32;
        for r in 0..rounds {
            let t = Instant::now();
            direct.view_pull(0, direct.watermark())?;
            out.entry("router.view_pull_ms")
                .or_default()
                .push(ms(t.elapsed()));
            let t = Instant::now();
            direct.slice_checkpoint(&[r as u32 % partitions])?;
            out.entry("router.slice_checkpoint_ms")
                .or_default()
                .push(ms(t.elapsed()));
        }
        out.insert(
            "router.hop_ping_us",
            vec![median(&hop_ping) - median(&ping)],
        );
        out.insert("router.hop_ack_ms", vec![median(&hop_ack) - median(&ack)]);
        out.insert("net.ping_us", ping);
        Ok(())
    })();
    topo.stop();
    result.map_err(|e| std::io::Error::other(format!("router probe: {e}")))?;
    Ok(out)
}
