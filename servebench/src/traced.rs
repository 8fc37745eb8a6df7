//! The traced run: where each request's time goes, layer by layer.
//!
//! The run sets up a warm server as the untraced run does, then
//!
//! 1. alternates one-second slices of the closed loop without and with
//!    client spans (around encode, round trip and decode). Both kinds of
//!    slice run the same cycle code on the same connection type, so
//!    `trace.overhead_ratio` measures the spans alone. The first traced
//!    slice keeps the exact bytes of one exchange per distinct input
//!    (conveyor: of one whole pass of each stream);
//! 2. after the server stopped, replays the server half in process on
//!    those bytes — decode, the service or session call, encode — and
//!    checks each answer bit for bit against the wire answer;
//! 3. replays the pipeline layers (`prepare_shared`, `WorkerPool::detect`,
//!    `assemble`, the ordering engine, per-tag `detect_slot`) on every
//!    batch, the session layer on every stream, and builds each reference
//!    bank once more from cold.
//!
//! The spans go to `servebench/out/trace-<workload>-<seed>.json`, and the
//! per-operation self-time table is printed beside `trace.overhead_ratio`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rfid_gen2::Epc;
use stpp_core::ReferenceBankCache;
use stpp_serve::proto::{decode_frame, encode_frame};
use stpp_serve::{
    LocalizationRequest, LocalizationService, Request, Response, ServiceConfig, ServiceSession,
};

use crate::cli::{Args, Workload};
use crate::replay::{self, bytes, Pipeline};
use crate::stats::{self, median, ratio};
use crate::trace::{self, Tracer};
use crate::wire::{self, Cycle, CycleCost, Recorder, Sent, Tally};
use crate::workload::{Inputs, Stream, CLIENTS};
use crate::{Metric, Report};

/// Most spans the Chrome trace file holds (about 150 bytes each).
const TRACE_FILE_SPANS: usize = 100_000;

/// Server-side cost of one replayed cycle, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCost {
    decode_s: f64,
    handle_s: f64,
    encode_s: f64,
    round_trip_s: f64,
}

/// Checks a replayed answer against the wire answer, bit for bit. A
/// localization's request metrics carry wall-clock timings, so only its
/// result is compared. Returns the service time the server measured for
/// the wire answer, when it carries a localization.
fn same_answer(replayed: &Response, wire_bytes: &[u8]) -> Result<Option<f64>, String> {
    let (wire, _) = decode_frame::<Response>(wire_bytes).map_err(|e| format!("decode: {e}"))?;
    let (same, served) = match (replayed, &wire) {
        (Response::Localized { response: a }, Response::Localized { response: b }) => {
            (bytes(&a.result)? == bytes(&b.result)?, Some(b.metrics.total_seconds))
        }
        (
            Response::Flushed { session: sa, outcome: a },
            Response::Flushed { session: sb, outcome: b },
        ) => (
            sa == sb
                && a.as_ref().map(|r| bytes(&r.result)).transpose()?
                    == b.as_ref().map(|r| bytes(&r.result)).transpose()?,
            b.as_ref().map(|r| r.metrics.total_seconds),
        ),
        _ => (bytes(replayed)? == wire_bytes, None),
    };
    if same {
        Ok(served)
    } else {
        Err(format!("replayed answer {replayed:?} differs from the wire answer"))
    }
}

/// Replays the server half of captured cycles on the bytes the clients
/// sent: decode, the handler's service or session call, encode.
fn replay_server(
    service: &Arc<LocalizationService>,
    cycles: &[Cycle],
    round_trips: &BTreeMap<usize, Vec<f64>>,
    tracer: &mut Tracer,
    localize_s: &mut Vec<f64>,
) -> Result<Vec<ServerCost>, String> {
    let mut session: Option<ServiceSession> = None;
    let mut costs = Vec::with_capacity(cycles.len());
    for cycle in cycles {
        let request_id = cycle.request_id;
        let mut cost = ServerCost::default();
        for exchange in &cycle.exchanges {
            let outer = tracer.begin("server.request", request_id);
            let (decoded, decode_s) = tracer.time("proto.decode_request", request_id, || {
                decode_frame::<Request>(&exchange.request)
            });
            let request = decoded.map_err(|e| format!("decode: {e}"))?.0;
            let handled = Instant::now();
            let response = match request {
                Request::Localize { input, threads } => {
                    let request = LocalizationRequest {
                        input: Arc::new(input),
                        threads: threads.map(|t| t as usize),
                    };
                    let (answer, secs) =
                        tracer.time("service.localize_request", request_id, || {
                            service.localize_request(request)
                        });
                    localize_s.push(secs);
                    match answer {
                        Ok(response) => Response::Localized { response },
                        Err(error) => Response::Rejected { error },
                    }
                }
                Request::OpenSession { geometry, quiescence_s: None } => {
                    let (opened, _) =
                        tracer.time("session.open", request_id, || service.open_session(geometry));
                    session = Some(opened.map_err(|e| format!("open session: {e}"))?);
                    // The id is the server's choice; take it from the wire.
                    decode_frame::<Response>(&exchange.response).map_err(|e| e.to_string())?.0
                }
                Request::IngestReports { session: id, reports } => {
                    let active = session.as_mut().ok_or("ingest before open")?;
                    let (ingested, _) = tracer.time("session.ingest", request_id, || {
                        reports.iter().try_for_each(|r| {
                            active.ingest_sample(
                                Epc::from_serial(r.epc_serial),
                                r.time_s,
                                r.phase_rad,
                            )
                        })
                    });
                    ingested.map_err(|e| format!("ingest: {e}"))?;
                    Response::Ingested { session: id, pending: active.pending_tags() as u64 }
                }
                Request::Provisional { session: id } => {
                    let active = session.as_mut().ok_or("poll before open")?;
                    let (ordering, _) =
                        tracer.time("session.provisional", request_id, || active.provisional());
                    Response::Provisional { session: id, ordering }
                }
                Request::FlushSession { session: id, finish } => {
                    let flushed = if finish {
                        let active = session.take().ok_or("finish before open")?;
                        tracer.time("session.finish", request_id, || active.finish()).0
                    } else {
                        let active = session.as_mut().ok_or("flush before open")?;
                        tracer.time("session.flush", request_id, || active.flush_quiescent()).0
                    };
                    match flushed {
                        Ok(outcome) => Response::Flushed { session: id, outcome },
                        Err(error) => Response::Rejected { error },
                    }
                }
                other => return Err(format!("unexpected captured request {other:?}")),
            };
            let handle_s = handled.elapsed().as_secs_f64();
            let (encoded, encode_s) =
                tracer.time("proto.encode_response", request_id, || encode_frame(&response));
            encoded.map_err(|e| format!("encode: {e}"))?;
            tracer.end(outer);
            // The service time the server itself measured under load
            // stands in for the replay's wherever the answer carries one:
            // an idle replay pays wake-ups the loaded server does not.
            let served = same_answer(&response, &exchange.response)?;
            cost.decode_s += decode_s;
            cost.handle_s += served.unwrap_or(handle_s);
            cost.encode_s += encode_s;
            cost.round_trip_s += exchange.round_trip_s;
        }
        // A Localize input was sent many times: use its median round trip.
        if let Some(rts) = match cycle.sent {
            Sent::Batch(batch) => round_trips.get(&batch),
            Sent::Stream(_) => None,
        } {
            cost.round_trip_s = median(&mut rts.clone());
        }
        costs.push(cost);
    }
    Ok(costs)
}

/// The `q`-quantile of `values`, multiplied by `scale`.
fn scaled_quantile(values: &[f64], scale: f64, q: f64) -> f64 {
    stats::quantile(&mut values.to_vec(), q) * scale
}

/// What the wire phases of a traced run recorded.
struct WirePhases {
    /// The untraced slices: the latency tail and the service's own times.
    untraced: Tally,
    /// The traced slices.
    traced: Tally,
    server: wire::ServerReport,
    problems: Vec<String>,
    spans: Vec<trace::Span>,
    costs: Vec<CycleCost>,
    captured: Vec<Cycle>,
    round_trips: BTreeMap<usize, Vec<f64>>,
}

/// Sets up a warm server and alternates untraced and traced slices of
/// the closed loop, so drift in the machine's speed cancels out of
/// `trace.overhead_ratio`.
fn wire_phases(args: &Args, inputs: &Inputs, epoch: Instant) -> Result<WirePhases, String> {
    let pairs = (args.seconds / 2).max(1);
    let slice = Duration::from_secs_f64(args.seconds as f64 / (2 * pairs) as f64);
    let (server, _) = wire::set_up(inputs)?;
    let before = wire::service_stats(&server)?;
    let mut rounds = [0usize; CLIENTS];
    let mut untraced = wire::Phase::default();
    let mut traced = wire::Phase::default();
    let mut tid = 0u32;
    for pair in 0..pairs {
        untraced.merge(wire::measure(&server, inputs, slice, &mut rounds, || None)?);
        traced.merge(wire::measure(&server, inputs, slice, &mut rounds, || {
            tid += 1;
            Some(Recorder::new(epoch, tid, pair == 0))
        })?);
    }
    let builds = untraced.tally.bank_builds + traced.tally.bank_builds;
    let (report, mut problems) = wire::check_server(&server, &before, builds)?;
    server.stop()?;
    problems.extend(untraced.tally.errors.iter().chain(&traced.tally.errors).cloned());
    let mut phases = WirePhases {
        untraced: untraced.tally,
        traced: traced.tally,
        server: report,
        problems,
        spans: Vec::new(),
        costs: Vec::new(),
        captured: Vec::new(),
        round_trips: BTreeMap::new(),
    };
    // Every traced connection keeps what it sent first; keep one copy of
    // each batch's exchange and of each stream's pass.
    let mut kept = BTreeSet::new();
    for recorder in traced.recorders {
        let sent: BTreeSet<Sent> = recorder.captured.iter().map(|c| c.sent).collect();
        phases.captured.extend(recorder.captured.into_iter().filter(|c| !kept.contains(&c.sent)));
        kept.extend(sent);
        phases.spans.extend(recorder.tracer.into_spans());
        phases.costs.extend(recorder.costs);
        for (batch, rts) in recorder.round_trips {
            phases.round_trips.entry(batch).or_default().extend(rts);
        }
    }
    Ok(phases)
}

/// What the in-process layer replays measured.
struct Replays {
    server: Vec<ServerCost>,
    localize_s: Vec<f64>,
    session: replay::StreamReplay,
    pipeline: Vec<replay::PipelineSample>,
    banks: usize,
    build_s: Vec<f64>,
    spans: Vec<trace::Span>,
}

/// Replays each layer in process, on this thread only and against warm
/// state: the service answers every batch and stream once, and the
/// server-half and pipeline replays each run once untimed, before
/// anything is timed.
fn replay_layers(inputs: &Inputs, wire: &WirePhases, epoch: Instant) -> Result<Replays, String> {
    let mut tracer = Tracer::new(epoch, 0);
    let mut warm_tracer = Tracer::new(epoch, 0);
    let mut request_id = 1u64 << 56;
    let service = LocalizationService::new(ServiceConfig::default());
    for batch in &inputs.batches {
        let answer = service.localize(batch.input.clone()).map(|r| r.result);
        if answer != batch.reference {
            return Err("the in-process service disagrees with the reference".to_string());
        }
    }
    // The session layer replays the conveyor's belts, and the library and
    // airport inputs as the report streams a reader would have sent.
    let streams: Vec<Stream> = match inputs.workload {
        Workload::ConveyorStream => inputs.streams.clone(),
        _ => inputs.batches.iter().map(|b| Stream::of_input(&b.input)).collect(),
    };
    for stream in &streams {
        replay::replay_stream(&service, stream, None)?;
    }

    let mut localize_s = Vec::new();
    replay_server(&service, &wire.captured, &wire.round_trips, &mut warm_tracer, &mut Vec::new())?;
    let server =
        replay_server(&service, &wire.captured, &wire.round_trips, &mut tracer, &mut localize_s)?;
    if inputs.workload == Workload::ConveyorStream {
        // Its wire exchanges localize only inside flushes: time the
        // service on the batches those flushes formed.
        for batch in &inputs.batches {
            let request = LocalizationRequest { input: batch.input.clone(), threads: None };
            let (_, secs) = tracer
                .time("service.localize_request", request_id, || service.localize_request(request));
            localize_s.push(secs);
            request_id += 1;
        }
    }

    let mut session = replay::StreamReplay::default();
    for stream in &streams {
        session.add_cost(replay::replay_stream(&service, stream, Some((&mut tracer, request_id)))?);
        request_id += 1;
    }

    let mut pipeline = Pipeline::new();
    for batch in &inputs.batches {
        pipeline.replay(batch, &mut warm_tracer, 0)?;
    }
    let samples = inputs
        .batches
        .iter()
        .map(|batch| {
            request_id += 1;
            pipeline.replay(batch, &mut tracer, request_id)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Each reference bank once more from cold, with the detector of a
    // batch that uses it.
    let mut banks = HashMap::new();
    for batch in &inputs.batches {
        for key in crate::workload::bank_keys(&batch.input) {
            banks.entry(key).or_insert_with(|| replay::detector_for(&batch.input));
        }
    }
    let mut build_s = Vec::new();
    for ((_, bits), detector) in &banks {
        let cold = ReferenceBankCache::new();
        let (_, secs) = tracer.time("reference.build", request_id, || {
            cold.get_or_build(
                detector.reference_params,
                detector.window,
                detector.offset_candidates,
                f64::from_bits(*bits),
            )
        });
        build_s.push(secs);
    }
    Ok(Replays {
        server,
        localize_s,
        session,
        pipeline: samples,
        banks: pipeline.banks(),
        build_s,
        spans: tracer.into_spans(),
    })
}

/// The traced run.
pub fn run(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut wire = wire_phases(args, inputs, epoch)?;
    let attempted = wire.untraced.attempted + wire.traced.attempted;
    let failed = wire.untraced.failed + wire.traced.failed;
    if failed > 0 {
        let problems = std::mem::take(&mut wire.problems);
        return Ok(Report { attempted, failed, problems, metrics: Vec::new() });
    }
    let replays = replay_layers(inputs, &wire, epoch)?;

    // The file keeps every replay span and the earliest client spans; the
    // table covers every span recorded.
    let mut spans = std::mem::take(&mut wire.spans);
    spans.extend_from_slice(&replays.spans);
    spans.sort_by_key(|s| (s.tid != 0, s.start_ns));
    let path =
        PathBuf::from(format!("servebench/out/trace-{}-{}.json", args.workload.name(), args.seed));
    let written = trace::write_chrome_trace(&path, &spans, TRACE_FILE_SPANS)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {written} of {} spans written to {}", spans.len(), path.display());
    print!("{}", trace::render_table(&trace::table(&spans)));

    let metrics = layer_metrics(inputs, &wire, &replays);
    println!(
        "trace.overhead_ratio {:.4} (traced p50 {:.4} ms over {} requests, untraced p50 {:.4} ms \
         over {})",
        metrics.iter().find(|m| m.name == "trace.overhead_ratio").expect("metric").value,
        scaled_quantile(&wire.traced.latency_s, 1e3, 0.5),
        wire.traced.latency_s.len(),
        scaled_quantile(&wire.untraced.latency_s, 1e3, 0.5),
        wire.untraced.latency_s.len()
    );
    Ok(Report { attempted, failed, problems: wire.problems, metrics })
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(inputs: &Inputs, wire: &WirePhases, replays: &Replays) -> Vec<Metric> {
    let p50 = |values: &[f64], scale: f64| scaled_quantile(values, scale, 0.5);
    let cost = |f: fn(&CycleCost) -> f64| wire.costs.iter().map(f).collect::<Vec<f64>>();
    let server = |f: fn(&ServerCost) -> f64| replays.server.iter().map(f).collect::<Vec<f64>>();
    let pipe = |f: fn(&replay::PipelineSample) -> f64| {
        replays.pipeline.iter().map(f).collect::<Vec<f64>>()
    };
    let samples = &replays.pipeline;
    let slot_s: Vec<f64> = samples.iter().flat_map(|s| s.slot_s.iter().copied()).collect();
    let tags: usize = inputs.batches.iter().map(|b| b.input.observations.len()).sum();
    let detected: usize = samples.iter().map(|s| s.detected).sum();
    let cells: u64 = samples.iter().map(|s| s.cells).sum();
    let pool_busy: f64 = samples.iter().map(|s| s.fanout as f64 * s.detect_s).sum();
    let hits: u64 = samples.iter().map(|s| s.bank.hits).sum();
    let lookups: u64 = samples.iter().map(|s| s.bank.hits + s.bank.misses).sum();
    let residual = server(|c| c.round_trip_s - c.decode_s - c.handle_s - c.encode_s);
    let request_bytes: usize = wire.costs.iter().map(|c| c.request_bytes).sum();
    let cycle_samples: usize = wire.costs.iter().map(|c| c.samples).sum();
    let (cycles, replayed, batches) = (wire.costs.len(), replays.server.len(), samples.len());
    let tally = &wire.untraced;
    let session = &replays.session;
    let polls = session.provisional_s.len();
    vec![
        Metric::new("client.encode_ms", p50(&cost(|c| c.encode_s), 1e3), "ms", cycles),
        Metric::new("client.decode_ms", p50(&cost(|c| c.decode_s), 1e3), "ms", cycles),
        Metric::new("client.roundtrip_ms", p50(&cost(|c| c.round_trip_s), 1e3), "ms", cycles),
        Metric::new(
            "client.request_bytes_per_sample",
            ratio(request_bytes as f64, cycle_samples as f64),
            "B/sample",
            cycles,
        ),
        Metric::new(
            "client.latency_p99_ms",
            scaled_quantile(&tally.latency_s, 1e3, 0.99),
            "ms",
            tally.latency_s.len(),
        ),
        Metric::new("proto.decode_request_ms", p50(&server(|c| c.decode_s), 1e3), "ms", replayed),
        Metric::new("proto.encode_response_ms", p50(&server(|c| c.encode_s), 1e3), "ms", replayed),
        Metric::new("server.residual_ms", p50(&residual, 1e3), "ms", replayed),
        Metric::new("server.busy_rejections", wire.server.busy_rejections as f64, "count", 1),
        Metric::new("server.internal_errors", wire.server.internal_errors as f64, "count", 1),
        Metric::new(
            "service.localize_ms",
            p50(&replays.localize_s, 1e3),
            "ms",
            replays.localize_s.len(),
        ),
        Metric::new(
            "service.reported_total_ms",
            p50(&tally.service_s, 1e3),
            "ms",
            tally.service_s.len(),
        ),
        Metric::new(
            "service.geometry_hit_ratio",
            ratio(wire.server.geometry_hits as f64, wire.server.geometry_lookups as f64),
            "ratio",
            wire.server.geometry_lookups as usize,
        ),
        Metric::new(
            "service.measured_bank_builds",
            (wire.untraced.bank_builds + wire.traced.bank_builds) as f64,
            "count",
            1,
        ),
        Metric::new("service.geometries", inputs.geometries as f64, "count", 1),
        Metric::new("pipeline.prepare_us", p50(&pipe(|s| s.prepare_s), 1e6), "us", batches),
        Metric::new("pipeline.assemble_us", p50(&pipe(|s| s.assemble_s), 1e6), "us", batches),
        Metric::new("pool.detect_ms", p50(&pipe(|s| s.detect_s), 1e3), "ms", batches),
        Metric::new("pool.efficiency", ratio(slot_s.iter().sum(), pool_busy), "ratio", batches),
        Metric::new("reference.banks", replays.banks as f64, "count", 1),
        Metric::new("reference.build_ms", p50(&replays.build_s, 1e3), "ms", replays.build_s.len()),
        Metric::new(
            "reference.hit_ratio",
            ratio(hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        ),
        Metric::new("vzone.detect_us_per_tag", p50(&slot_s, 1e6), "us", slot_s.len()),
        Metric::new("vzone.detected_ratio", ratio(detected as f64, tags as f64), "ratio", tags),
        Metric::new("dtw.cells_per_request", ratio(cells as f64, batches as f64), "count", batches),
        Metric::new(
            "dtw.ns_per_cell",
            ratio(slot_s.iter().sum::<f64>() * 1e9, cells as f64),
            "ns",
            slot_s.len(),
        ),
        Metric::new("ordering.order_us", p50(&pipe(|s| s.order_s), 1e6), "us", batches),
        Metric::new(
            "ordering.comparisons",
            stats::mean(&pipe(|s| s.comparisons as f64)),
            "count",
            batches,
        ),
        Metric::new(
            "session.ingest_us_per_report",
            ratio(session.ingest_s * 1e6, session.reports as f64),
            "us",
            session.reports,
        ),
        Metric::new("session.provisional_us", p50(&session.provisional_s, 1e6), "us", polls),
        Metric::new(
            "session.pending_tags_per_poll",
            ratio(session.pending_at_polls as f64, polls as f64),
            "count",
            polls,
        ),
        Metric::new(
            "session.flush_us",
            p50(&session.release_flush_s, 1e6),
            "us",
            session.release_flush_s.len(),
        ),
        Metric::new(
            "session.flush_examined_per_flush",
            ratio(session.flush_examined as f64, session.flushes as f64),
            "count",
            session.flushes,
        ),
        Metric::new(
            "session.empty_flush_ratio",
            ratio(session.empty_flushes as f64, session.flushes as f64),
            "ratio",
            session.flushes,
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(p50(&wire.traced.latency_s, 1.0), p50(&tally.latency_s, 1.0)),
            "ratio",
            wire.traced.latency_s.len(),
        ),
    ]
}
